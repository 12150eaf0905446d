(** Clock/Timer capability: the engine-level abstraction over {e which}
    notion of time a program runs on.

    Everything above the engine (processes, timer wheels, drivers,
    benchmarks) schedules work through a [Clock.t] value instead of calling
    {!Sim} directly. Two implementations exist:

    - the {e virtual} clock, {!Sim.clock}, backed by the discrete-event
      heap — deterministic, used for development and schedule exploration;
    - a {e monotonic} wall clock, provided by the Hostio reactor, backed by
      real elapsed time and OS timers — used for deployment runs.

    The capability is a record of closures, so neither implementation leaks
    its representation and the virtual path stays byte-identical: the
    virtual clock's [after] {e is} [Sim.after]. *)

type kind =
  | Virtual  (** Discrete-event simulated time ({!Sim}). *)
  | Monotonic  (** Real elapsed wall-clock time (Hostio loop). *)

type t

type timer
(** A cancellable pending timer (from {!arm}). *)

val make :
  kind:kind ->
  now:(unit -> int) ->
  schedule:(int -> (unit -> unit) -> unit) ->
  arm:(int -> (unit -> unit) -> (unit -> unit)) ->
  t
(** [make ~kind ~now ~schedule ~arm] builds a clock capability.
    [schedule dt f] runs [f] once after [dt] nanoseconds (fire-and-forget);
    [arm dt f] does the same but returns a cancel thunk. Each clock gets a
    process-unique {!id}. *)

val kind : t -> kind

val id : t -> int
(** Process-unique identity — lets registries (Timewheel, Hostio) key
    per-clock state without physical equality on closures. *)

val is_virtual : t -> bool

val now : t -> int
(** Current time in nanoseconds. Virtual: {!Sim.now}. Monotonic:
    nanoseconds since the owning loop started. *)

val after : t -> int -> (unit -> unit) -> unit
(** [after c dt f] runs [f] once, [dt] ns from now ([dt] clamped to 0).
    Not cancellable; on a wall clock the pending callback keeps the
    reactor alive until it fires, so prefer {!arm} for long deadlines
    that usually get cancelled. *)

val at : t -> int -> (unit -> unit) -> unit
(** [at c time f] is [after c (time - now c) f] — absolute-time
    convenience; past times fire immediately (clamped), they do not
    raise like {!Sim.at}. *)

val arm : t -> int -> (unit -> unit) -> timer
(** [arm c dt f] schedules [f] after [dt] ns and returns a handle;
    {!cancel} guarantees [f] never runs. *)

val cancel : timer -> unit
(** Idempotent. On both clocks the timer's entry leaves its queue at
    once: the simulator's event heap no longer holds it (so {!Sim.pending}
    drops and no no-op event is ever dispatched for it), and a wall
    clock's reactor no longer waits for it to quiesce. *)

(** Clock/Timer capability: the engine-level abstraction over {e which}
    notion of time a program runs on.

    Everything above the engine (processes, drivers, deadlines,
    benchmarks) schedules work through a [Clock.t] value instead of
    calling {!Sim} directly. Two implementations exist:

    - the {e virtual} clock, {!Sim.clock}, backed by the discrete-event
      heap — deterministic, used for development and schedule exploration;
    - a {e monotonic} wall clock, provided by the Hostio reactor, backed by
      real elapsed time and OS timers — used for deployment runs.

    A clock is a view of its owner's event heap: both owners keep one
    {!Heap.t} of callbacks keyed by absolute nanoseconds, and every
    callback and deadline is one entry of it. The virtual clock's [after]
    {e is} [Sim.after]: code scheduling through the capability behaves
    byte-identically to code calling the simulator directly. *)

type kind =
  | Virtual  (** Discrete-event simulated time ({!Sim}). *)
  | Monotonic  (** Real elapsed wall-clock time (Hostio loop). *)

type t

type timer
(** A cancellable pending timer (from {!arm}). *)

val make : kind:kind -> now:(unit -> int) -> events:(unit -> unit) Heap.t -> t
(** [make ~kind ~now ~events] is the clock over the owner's event heap
    [events], whose priorities are absolute times on [now]'s scale. Each
    clock gets a process-unique {!id}. *)

val kind : t -> kind

val id : t -> int
(** Process-unique identity — lets registries (Hostio) key per-clock
    state without physical equality on closures. *)

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
(** [arm c dt f] is [after c dt f] with a handle: [f] runs exactly at
    [now c + max 0 dt], after every earlier-queued callback of that
    instant, unless {!cancel} comes first. The handle is the only
    allocation. *)

val cancel : timer -> unit
(** Idempotent, and a no-op once the timer has fired. Otherwise the
    timer's entry leaves the event heap at once: the simulator no longer
    counts it as {!Sim.pending} nor dispatches it, and a wall clock's
    reactor no longer waits for it to quiesce. A cancelled or fired
    handle never touches a later timer, even one that reuses its heap
    slot. *)

val none : timer
(** A timer that was never armed: {!cancel} ignores it. A placeholder for
    state that holds no armed timer, compared with [==]. *)

(** Discrete-event simulator core: a virtual clock and an event queue.

    All times are integer {e nanoseconds} of virtual time. The simulator is
    single-threaded and deterministic: under the default {!Fifo} policy,
    events scheduled for the same instant fire in scheduling order. A
    non-default {!policy} permutes dispatch order {e within} a timestamp —
    never across timestamps — which is how Padico_check explores
    interleavings while keeping time semantics intact. *)

type policy =
  | Fifo  (** Same-instant events fire in scheduling order (default). *)
  | Lifo  (** Same-instant events fire newest-first. *)
  | Random of int
      (** Uniform choice among same-instant events, driven by a dedicated
          generator seeded with the payload — independent of the root
          {!Rng.t}, so exploration does not perturb modelled randomness. *)
  | Starve_oldest
      (** Always defers the oldest same-instant event while any other is
          ready — a pathological scheduler that starves whoever queued
          first. *)

val policy_to_string : policy -> string
(** ["fifo"], ["lifo"], ["random-<seed>"], ["starve"] — the format embedded
    in Padico_check replay tokens. *)

val policy_of_string : string -> policy option
(** Inverse of {!policy_to_string}. *)

type t

val create : ?seed:int -> unit -> t
(** [create ?seed ()] is a fresh simulator with its clock at 0 and the
    {!Fifo} policy. [seed] (default 42) seeds the root {!Rng.t}. *)

val now : t -> int
(** Current virtual time in nanoseconds. *)

val rng : t -> Rng.t
(** The simulator's root random generator. *)

val policy : t -> policy
(** The active schedule policy. *)

val set_policy : t -> policy -> unit
(** [set_policy t p] switches same-instant dispatch to [p]. Setting
    [Random seed] (re)creates the dedicated schedule generator, so setting
    the same policy twice replays the same choices. *)

val at : t -> int -> (unit -> unit) -> unit
(** [at t time f] schedules [f] to run at absolute virtual [time]. Scheduling
    in the past raises [Invalid_argument]. *)

val after : t -> int -> (unit -> unit) -> unit
(** [after t dt f] schedules [f] at [now t + dt]. [dt] is clamped to 0. *)

val pending : t -> int
(** Number of queued events. *)

val events_dispatched : t -> int
(** Number of events this simulator has dispatched from its own queue
    since {!create} (by {!run} or {!step}), plus the cross-shard frames
    a sharded runtime ran on it through {!dispatch_at}. *)

val run : ?until:int -> t -> unit
(** [run t] dispatches events in time order until the queue is empty or the
    clock passes [until] (events strictly after [until] stay queued).

    Exit clock discipline (all exits are monotone — the clock never moves
    backward): on queue exhaustion the clock stays at the last dispatched
    event; when the next event lies beyond [until] the clock advances to
    [until] (but is never rewound below where a previous run left it); on
    {!stop} the clock freezes at the event that called it. *)

val step : t -> bool
(** [step t] dispatches one event — chosen by the active policy among the
    earliest-timestamp bucket; [false] if the queue was empty. *)

val stop : t -> unit
(** [stop t] makes the current [run] return after the ongoing event. The
    clock stays at that event's timestamp. *)

val stopped : t -> bool
(** Whether {!stop} has been called since the last {!run} /
    {!clear_stopped}. *)

val clear_stopped : t -> unit
(** Re-arm a stopped simulator. [run] does this implicitly on entry; the
    sharded runtime (which drives {!step} directly) calls it explicitly. *)

(** {1 Sharded-runtime hooks}

    Used by {!Shard} workers, which drive a simulator manually instead of
    through {!run}: peek the next local timestamp, merge against staged
    cross-shard frames, and either {!step} or {!dispatch_at} a frame. *)

val peek_next : t -> int
(** Timestamp of the earliest queued event; [max_int] when none is
    queued. *)

val advance_to : t -> int -> unit
(** [advance_to t time] sets the clock to [time]. Raises
    [Invalid_argument] when [time] is in the past — the conservative
    synchronization protocol guarantees a shard never needs to. *)

val dispatch_at : t -> int -> (unit -> unit) -> unit
(** [dispatch_at t time f] advances the clock to [time] (as {!advance_to})
    and runs [f] as one dispatched event, counted by
    {!events_dispatched}: how a sharded runtime runs a cross-shard frame
    on its destination's simulator. *)

val clock : t -> Clock.t
(** The simulator's virtual {!Clock.t} capability — cached, so repeated
    calls return the {e same} clock (same {!Clock.id}). It is a view of
    this simulator's event queue: its [after] is exactly {!after}, so
    code scheduling through the capability behaves byte-identically to
    code calling the simulator directly. A timer {!Clock.arm}ed on it is
    one queued event that fires at its exact instant, and
    {!Clock.cancel} takes that event out of the queue: it is neither
    {!pending} nor dispatched. *)

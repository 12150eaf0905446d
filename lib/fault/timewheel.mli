(** A slotted timeout wheel over the virtual clock.

    Request deadlines are armed in huge numbers and almost always
    cancelled (the request completes first). Pushing each one into the
    simulator's event heap would grow it with dead entries; the wheel
    instead buckets timers into fixed-width slots and schedules {e one}
    clock timer per occupied slot. Cancellation flips a flag, and the
    last live timer of a slot to be cancelled also cancels the slot's
    clock timer, so no dead slot event stays queued; a fired slot skips
    cancelled entries.

    Deadlines round {e up} to the slot boundary: a timeout fires at or
    slightly after the requested instant, never before — the right bias for
    "give up after at least this long". Within a slot, timers fire in
    (requested deadline, arm order), so the wheel preserves the relative
    firing order a per-timer heap would produce. *)

type t

type timer

val create_on : ?slot_ns:int -> Engine.Clock.t -> t
(** A fresh wheel over any {!Engine.Clock.t}; [slot_ns] (default 65536 ns
    ≈ 66 µs) is the firing granularity. Raises [Invalid_argument] when
    non-positive. On every clock, cancelling every timer of a slot also
    cancels the slot's clock timer: the simulator's heap holds no dead
    slot event, and a wall-clock reactor can quiesce. *)

val create : ?slot_ns:int -> Engine.Sim.t -> t
(** [create_on] over the simulator's virtual clock. *)

val for_clock : Engine.Clock.t -> t
(** The per-clock shared wheel (created on first use with the default
    granularity). VLink request deadlines all go through this one. *)

val for_sim : Engine.Sim.t -> t
(** [for_clock (Sim.clock sim)]. *)

val arm : t -> after_ns:int -> (unit -> unit) -> timer
(** Schedule a callback at least [after_ns] from now ([after_ns] clamps
    to 0). *)

val cancel : timer -> unit
(** Idempotent; a cancelled timer never fires. Its callback is released at
    once. The timer record stays in its slot until the slot fires, or
    until the slot's last live timer is cancelled: the slot then leaves
    the wheel and its clock timer is cancelled. *)

val none : timer
(** A timer that was never armed: {!cancel} ignores it. A placeholder for
    state that holds no armed timer. *)

val pending : t -> int
(** Armed, not-yet-fired, not-cancelled timers. *)

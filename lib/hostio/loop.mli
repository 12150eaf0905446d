(** The Hostio reactor: a select-driven event loop over real Unix file
    descriptors with wall-clock timers.

    This is the monotonic counterpart of {!Engine.Sim}: where the simulator
    pops virtual-time events off a heap, the loop blocks in [select] until
    either a watched descriptor becomes ready or the earliest armed timer
    expires. Green threads ({!Engine.Proc}), deadlines and every layer
    above run unmodified on it through the loop's {!Engine.Clock.t}
    capability: its timers are the clock's ({!Engine.Clock.arm},
    {!Engine.Clock.cancel}).

    Times are integer nanoseconds since the loop was created, so durations
    written against the virtual clock ([Time.ms 5]) mean the same thing
    here — in real elapsed time.

    Like [Sim.run], {!run} returns when nothing can happen any more: no
    live (non-cancelled) timer is armed and no {e active} descriptor is
    watched. Listening sockets register as {e passive} so an idle server
    with only listeners left quiesces instead of blocking forever. *)

type t

val create : unit -> t

val clock : t -> Engine.Clock.t
(** The loop's monotonic {!Engine.Clock.t} (cached; stable {!Engine.Clock.id}).
    It is a view of the loop's timer heap: every timer and callback
    scheduled through it is one entry there. *)

val of_clock : Engine.Clock.t -> t option
(** Recover the loop that owns a clock previously returned by {!clock} —
    how upper layers (SysIO) reach the reactor from a node's clock without
    the engine depending on Hostio. [None] for virtual clocks. *)

val now_ns : t -> int
(** Monotonic wall-clock nanoseconds since [create] (never decreases). *)

(** {2 File descriptors} *)

val fd_limit : int
(** [select]'s FD_SETSIZE (1024). A descriptor numbered at or beyond it
    would {e silently corrupt} the fd bitmaps, so {!watch_fd} refuses it
    with a descriptive [Invalid_argument] instead — run large edge sweeps
    on the sim backend, or cap host clients below this ceiling. *)

val watch_fd : t -> Unix.file_descr -> passive:bool -> unit
(** Register a descriptor. [passive:true] (listeners) does not keep
    {!run} alive; [passive:false] (connections) does. No interest is
    armed until {!set_read}/{!set_write}. Raises [Invalid_argument] if
    the descriptor is already watched or numbered >= {!fd_limit}. *)

val set_read : t -> Unix.file_descr -> (unit -> unit) option -> unit
(** Arm ([Some cb]) or disarm ([None]) read-readiness interest. *)

val set_write : t -> Unix.file_descr -> (unit -> unit) option -> unit
(** Arm or disarm write-readiness interest. *)

val unwatch_fd : t -> Unix.file_descr -> unit
(** Forget a descriptor (does not close it). Safe from inside a readiness
    callback. *)

(** {2 Running} *)

val run : ?until_ns:int -> t -> unit
(** Dispatch timers and descriptor readiness until nothing live remains
    (no live timer, no active descriptor), {!stop} is called, or the
    clock passes [until_ns]. *)

val stop : t -> unit

(** {2 Stats (the [padico_cli hostio] report)} *)

val iterations : t -> int
(** Select round-trips completed. *)

val timers_fired : t -> int

val fd_events : t -> int
(** Readiness callbacks delivered. *)

val live_timers : t -> int
(** Armed and not yet fired/cancelled. *)

val watched_fds : t -> int

val active_fds : t -> int
(** Watched descriptors that keep {!run} alive (non-passive). *)

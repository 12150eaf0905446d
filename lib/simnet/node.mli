(** A grid node: an identity, a CPU resource, and attached segments.

    The CPU is a serialized resource: software layers charge host time
    ([cpu], [cpu_async]) and charges queue behind each other, which is what
    makes per-byte copy costs and per-message overheads translate into the
    latency/bandwidth figures of the paper. *)

type t

val create : ?clock:Engine.Clock.t -> Engine.Sim.t -> id:int -> name:string -> t
(** [?clock] selects the execution backend for everything the node runs
    (processes, CPU charges, timers). Default: the simulator's virtual
    clock — byte-identical to the pre-capability behaviour. *)

val id : t -> int
(** Address of the node inside its own grid (small, per-[Net]). *)

(** [uid t] is a process-wide unique identity — a safe key for global
    registries even when several simulations coexist (tests). *)
val uid : t -> int

val name : t -> string
val sim : t -> Engine.Sim.t

val clock : t -> Engine.Clock.t
(** The clock capability this node runs on — the single point layers above
    (NetAccess, VLink, Resilient, Trace) consult to stay backend-agnostic. *)

val cpu_async : t -> int -> (unit -> unit) -> unit
(** [cpu_async node cost k] occupies the CPU for [cost] ns starting when it
    becomes free, then runs [k]. On a wall clock the modelled cost is not
    charged (real host time is the measurement); [k] still runs from a
    later loop iteration, preserving queue-then-run ordering. *)

val charge : t -> int -> unit
(** [charge node cost] occupies the CPU for [cost] ns like {!cpu_async},
    with nothing to run at the end: later charges queue behind it, but no
    event is scheduled. The charge for work whose only effect is the time
    it takes. No-op on a wall clock. *)

val cpu : t -> int -> unit
(** Blocking variant for process context: suspends the calling process while
    the work executes. *)

val cpu_busy_until : t -> int
(** Instant at which already-queued CPU work completes. *)

val is_up : t -> bool
(** False while the node is crashed (fault injection). A down node neither
    sends nor receives frames on any segment; its already-scheduled CPU work
    still drains, modelling in-flight interrupts. *)

val set_up : t -> bool -> unit
(** Crash ([false]) or restart ([true]) the node. Used by the fault
    injector; idempotent (watchers only fire on actual transitions). *)

val on_state : t -> (bool -> unit) -> unit
(** Subscribe to up/down transitions — the crash-visibility hook. The
    Hostio backend bridges a crash to real-socket resets through this
    (mirroring {!Segment.on_link_state} for carrier loss); watchers cannot
    be removed, so subscribers must keep stale closures inert themselves. *)

val spawn : t -> ?name:string -> (unit -> unit) -> Engine.Proc.handle
(** Spawn a process "running on" this node (naming/logging convenience). *)

val pp : Format.formatter -> t -> unit

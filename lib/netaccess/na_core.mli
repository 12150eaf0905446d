(** NetAccess core: the per-node arbitration dispatcher.

    The paper's arbitration layer provides "a consistent, reentrant and
    multiplexed access to every networking resource": all network events of
    a node — MadIO message arrivals and SysIO socket readiness — are funneled
    through a {e single} dispatcher process, so middleware systems never poll
    competitively, never race, and never starve each other. Each round
    dispatches up to a fixed quantum of MadIO work, then up to a fixed
    quantum of SysIO work; the two quanta are the paper's user-tunable
    interleaving policy ("to give more priority to system sockets or high
    performance network depending on the application") and the
    dispatcher's only knob ({!set_quanta}).

    Work items posted here must be {e non-blocking} (callback-based, à la
    Active Message, as the paper prescribes): an item that suspends would
    stall the whole node's network dispatch. *)

type t

type kind = Madio_work | Sysio_work

type quanta = {
  madio_quantum : int;  (** MadIO items dispatched per round *)
  sysio_quantum : int;  (** SysIO items dispatched per round *)
}

val default_quanta : quanta
(** [{madio_quantum = 4; sysio_quantum = 4}]. *)

val get : Simnet.Node.t -> t
(** The node's dispatcher; created (and its process spawned) on first use. *)

val node : t -> Simnet.Node.t

val set_quanta : t -> quanta -> unit
(** Set the interleaving. Raises [Invalid_argument] unless both quanta
    are [>= 1]. *)

val quanta : t -> quanta

val post : t -> kind -> (unit -> unit) -> unit
(** Enqueue a work item; the dispatcher wakes if idle. Exceptions raised by
    items are caught and logged, never propagated. Posted work is always
    admitted: SysIO posts only accepts here, while connection events go
    through readiness {!source}s, whose pushback is the transport's own
    receive window (an undrained source leaves its bytes in the socket
    buffer). *)

val post_droppable : t -> kind -> (unit -> unit) -> bool
(** Like [post], but when the queue is at or above its high watermark the
    item is {e shed}: dropped on the floor ([false] returned, shed counter
    bumped, [flow.shed] traced). Use only for work whose loss the protocol
    already tolerates (e.g. unreliable datagram delivery). *)

val set_admission : t -> kind -> high:int -> unit
(** Queue-depth watermark (in items) at which {!post_droppable} sheds.
    Default: unbounded (no shedding). Raises [Invalid_argument] unless
    [high >= 1]. *)

val dispatched : t -> kind -> int
(** Items dispatched so far (fairness observability, experiment E6). *)

val queue_depth : t -> kind -> int

val queue_peak : t -> kind -> int
(** Highest live-queue depth ever observed. *)

val shed_count : t -> kind -> int
(** Total items ever shed by admission control. *)

val mean_wait_ns : t -> kind -> float
(** Average virtual time items of [kind] spent queued before dispatch. *)

val polls_busy : t -> int
(** Always [0]: no round scans quiet sockets (idle connections are not
    on the ready list), so there are no scans to count. Kept so that
    existing metric readers still link. *)

val polls_idle : t -> int
(** Always [0], like {!polls_busy}. *)

(** {2 Readiness sources}

    Connection events do not travel as posted work items: each watched
    connection owns one readiness {e source}. Events accumulate at the
    source, and the source sits on the ready list at most once until
    drained. A dispatch round charges one [Calib.sysio_poll_ns] poll when
    the list holds a live source and drains up to the SysIO quantum of
    sources;
    {e idle connections are not on the list and cost zero}, so a round's
    cost is O(ready), not O(watched) nor O(events). *)

type source

val register_source : t -> 'o -> drain:('o -> unit) -> source
(** [register_source t owner ~drain] is a new readiness source whose
    drain runs [drain owner] from the dispatcher. [drain] must deliver
    {e every} pending event of the owner and be non-blocking. The source
    stores [owner] and [drain] as they are, so a [drain] shared by all
    sources of one kind costs no allocation per source. *)

val no_source : source
(** A source that is never live: {!mark_ready} and {!unregister_source}
    ignore it. A placeholder for state that has no source yet. *)

val unregister_source : t -> source -> unit
(** O(1); a queued entry of a dead source is skipped uncharged: a round
    whose ready list holds only dead sources pays no poll. *)

val mark_ready : t -> source -> unit
(** Enqueue the source on the ready list (no-op if already queued or
    unregistered) and wake the dispatcher. The queued flag is cleared
    {e before} the drain runs, so a mark arriving mid-drain re-enqueues —
    no lost wakeups, no duplicate dispatch. *)

val source_live : source -> bool

val ready_depth : t -> int
(** Sources currently on the ready list. *)

val source_count : t -> int
(** Live registered sources. *)

val ready_drains : t -> int
(** Total source drains executed. *)

val ready_polls : t -> int
(** Dispatcher rounds that paid the ready-list poll charge. *)

(** A network segment: a set of node ports sharing one {!Linkmodel}.

    A point-to-point link is a 2-port segment; a switched Ethernet or a SAN
    fabric is an n-port segment. Each port serializes frames at the model's
    bandwidth on egress and on ingress, so two senders targeting the same
    receiver contend for its input port — the effect the NetAccess
    arbitration experiment (E6) relies on. Frames are dropped independently
    with the model's loss probability.

    A segment may span several shards of its grid (see {!Net}). Every
    mutable cell of a send belongs to one port, and so to one shard: the
    source port owns its egress state, tx counters and loss/jitter
    generator, and the destination port owns its ingress state and rx
    counters. A send runs on the source node's simulator. Every frame
    lands at its arrival time on the destination's simulator, where
    ingress contention is resolved in arrival order and a crashed
    destination drops it: one rule for every frame, so a frame's timing
    does not depend on whether its endpoints share a shard. A frame whose
    destination node runs on another simulator gets there through the
    segment's cross-shard hook; its arrival is never earlier than
    [now + latency]. On a one-shard grid the hook is never called. *)

type t

val create :
  rng:Engine.Rng.t ->
  cross:(src:int -> dst:int -> ts:int -> (unit -> unit) -> unit) ->
  Linkmodel.t -> name:string -> t
(** [create ~rng ~cross model ~name] splits the segment's generator off
    [rng] (the grid root's; [rng] advances). Each port draws from a keyed
    child of that generator, fixed at {!attach}. [cross ~src ~dst ~ts f]
    must run [f] at virtual time [ts] on the shard of node id [dst];
    [Net] passes [Engine.Shard.post] behind a node→shard lookup. *)

val name : t -> string
val model : t -> Linkmodel.t

val uid : t -> int
(** Process-wide unique identity (distinct across simulations). *)

val attach : t -> Node.t -> unit
(** Give [node] a port on this segment. Idempotent. *)

val attached : t -> Node.t -> bool
val nodes : t -> Node.t list

val set_handler : t -> Node.t -> proto:int -> (Packet.t -> unit) -> unit
(** Register the receive callback for frames of protocol [proto] arriving at
    [node]'s port. One handler per (port, proto); re-registration replaces.
    Frames with no handler are counted and dropped. *)

val clear_handler : t -> Node.t -> proto:int -> unit

val send : t -> Packet.t -> unit
(** Inject a frame at the source port. Raises [Invalid_argument] when source
    or destination is not attached, or when the frame exceeds the MTU. The
    frame is delivered asynchronously (or lost). *)

(** {1 Dynamic fault overlay}

    Transient faults layered over the immutable {!Linkmodel}: link up/down,
    extra loss (bursts), extra latency (spikes) and blocked peers
    (partitions). Driven by [Padico_fault.Inject]; consulted per frame by
    {!send}. Like the rest of a port's egress state the overlay is per
    port, and a frame reads only its source port's. A fault-dropped frame
    consumes no randomness, so a healed link resumes with the same
    loss/jitter stream as an unfaulted run.

    The setters change the ports of [?ports] (default: every port). A
    port belongs to its node's shard: during a run of a grid of several
    shards, change only the ports of the shard running the caller. Between
    runs any port may change. [Padico_fault.Inject] arms one part per
    spanned shard, so on a grid of several shards a plan must be armed
    between runs. *)

val is_down : t -> Node.t -> bool
(** [is_down t node]: [node]'s port is down. *)

val set_down : ?ports:Node.t list -> t -> bool -> unit
(** Take the ports down / bring them up. On every change of a port its
    {!on_link_state} watchers fire with the new carrier state ([true] =
    up). *)

val on_link_state : t -> Node.t -> (bool -> unit) -> unit
(** [on_link_state t node f] subscribes to carrier changes of [node]'s
    port (the simulated NIC link-status interrupt); [f] runs on that
    node's shard. Watchers stack and cannot be removed; guard stale
    subscriptions with a generation check on the caller side. *)

val set_extra_loss : ?ports:Node.t list -> t -> float -> unit
(** Additional frame-loss probability added to the model's during a burst
    window. Raises [Invalid_argument] outside [0, 1]. *)

val set_extra_latency : ?ports:Node.t list -> t -> int -> unit
(** Additional one-way latency in ns (a congestion spike). Raises
    [Invalid_argument] when negative. *)

val block : t -> Node.t -> peer:int -> unit
(** [block t node ~peer] drops every frame [node]'s port sends to node id
    [peer] — the per-port building block of a network bipartition. *)

val clear_blocked : ?ports:Node.t list -> t -> unit

(** Observability for tests and benchmarks: totals summed over the ports,
    exact once the run has returned. *)
val frames_sent : t -> int

val frames_faulted : t -> int
(** Frames dropped by the fault overlay (down link, blocked pair, crashed
    source at send, crashed destination at arrival) — counted separately
    from random {!frames_lost}. *)

val frames_lost : t -> int
val frames_delivered : t -> int
val frames_unclaimed : t -> int
val bytes_sent : t -> int

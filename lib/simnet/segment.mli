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
    counters. A send runs on the source node's simulator. A frame whose
    destination node runs on another simulator goes through the segment's
    cross-shard hook at its arrival time, which is never earlier than
    [now + latency]; ingress contention is then resolved on the
    destination's shard. On a one-shard grid the hook is never called. *)

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
    extra loss (bursts), extra latency (spikes) and blocked node pairs
    (partitions). Driven by [Padico_fault.Inject]; consulted per frame by
    {!send}. A fault-dropped frame consumes no randomness, so a healed link
    resumes with the same loss/jitter stream as an unfaulted run. *)

val is_down : t -> bool

val set_down : t -> bool -> unit
(** Take the link down / bring it up. On every change the {!on_link_state}
    watchers fire with the new carrier state ([true] = up). *)

val on_link_state : t -> (bool -> unit) -> unit
(** Subscribe to carrier changes (the simulated NIC link-status interrupt).
    Watchers stack and cannot be removed; guard stale subscriptions with a
    generation check on the caller side. *)

val set_extra_loss : t -> float -> unit
(** Additional frame-loss probability added to the model's during a burst
    window. Raises [Invalid_argument] outside [0, 1]. *)

val extra_loss : t -> float

val set_extra_latency : t -> int -> unit
(** Additional one-way latency in ns (a congestion spike). Raises
    [Invalid_argument] when negative. *)

val extra_latency_ns : t -> int

val block_pair : t -> int -> int -> unit
(** Drop every frame between the two node ids (either direction) — the
    per-segment building block of a network bipartition. *)

val unblock_pair : t -> int -> int -> unit
val clear_blocked : t -> unit
val pair_blocked : t -> int -> int -> bool

(** Observability for tests and benchmarks: totals summed over the ports,
    exact once the run has returned. *)
val frames_sent : t -> int

val frames_faulted : t -> int
(** Frames dropped by the fault overlay (down link, blocked pair, crashed
    endpoint) — counted separately from random {!frames_lost}. *)

val frames_lost : t -> int
val frames_delivered : t -> int
val frames_unclaimed : t -> int
val bytes_sent : t -> int

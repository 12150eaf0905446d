(** Grid topology container and knowledge base.

    A [Net.t] owns the nodes and segments of one simulated grid and answers
    the topology queries the selector needs ("which networks connect A and
    B, and of which class?") — the paper's "knowledge base of the network
    topology managed by PadicoTM".

    A grid is a set of [shards >= 1] slices, one simulator heap each, and
    every node lives on one of them. One shard (the default) runs on its
    simulator directly. Several shards run under the conservative parallel
    runtime ({!Engine.Shard}), on [~domains] worker domains: segments that
    span shards post their frames across, and the least latency between
    two shards is their lookahead. Outcomes depend on the {e partition},
    never on the domain count — the same grid gives byte-identical results
    on 1 or N domains. *)

type t

val create : ?seed:int -> ?clock:Engine.Clock.t -> ?shards:int -> unit -> t
(** [?clock] is the execution backend every node of this grid runs on
    (default: the grid's own simulator clock). [?shards] (default 1) is
    the number of slices; the partition is chosen per node at {!add_node}
    and frozen by the first run of a grid with several shards. Several
    shards are incompatible with [?clock] (the Host backend runs in real
    time; conservative synchronization needs simulated clocks). *)

val sim : t -> Engine.Sim.t
(** The root simulator: shard 0's. *)

val clock : t -> Engine.Clock.t
(** The grid's clock capability (shard 0's; each node's own clock is
    [Node.clock]). *)

val shards : t -> int
(** Number of shards. *)

val shard_of : t -> Node.t -> int
(** The shard a node was placed on. *)

val shard_sim : t -> int -> Engine.Sim.t
(** Shard [i]'s simulator. Raises [Invalid_argument] out of range. *)

val shard_runtime : t -> Engine.Shard.t option
(** The conservative runtime of a grid with several shards — built on
    first use (freezing the topology), [None] for one shard. Exposed for
    benches and tests ([Shard.executed] / [Shard.posted]). *)

val add_node : ?shard:int -> t -> string -> Node.t
(** Create a node. Each node automatically gets a private loopback
    segment. [?shard] (default 0) places the node on that slice; raises
    [Invalid_argument] out of range, or once the runtime of a grid with
    several shards is built. *)

val add_segment : t -> Linkmodel.t -> ?name:string -> Node.t list -> Segment.t
(** Create a segment over [model] and attach the given nodes. *)

val nodes : t -> Node.t list
val segments : t -> Segment.t list
val node_by_id : t -> int -> Node.t option

val loopback_of : t -> Node.t -> Segment.t
(** The node's private loopback segment. *)

val segments_of : t -> Node.t -> Segment.t list
(** Segments the node is attached to (its loopback included), in global
    insertion order. O(degree) — use this instead of filtering {!segments}
    when iterating per node: grid-scale topologies hold thousands of
    segments, but each node touches only a handful. *)

val ranked_segments_of : t -> Node.t -> Segment.t list
(** {!segments_of} by decreasing bandwidth (stable): the order of
    {!links_between}, for callers that rank a node's links once. *)

val links_between : t -> Node.t -> Node.t -> Segment.t list
(** All segments attached to both nodes (the loopback when they are the same
    node), ordered by decreasing bandwidth. *)

val best_link : t -> Node.t -> Node.t -> Segment.t option
(** Highest-bandwidth segment between the two nodes. *)

val run : ?until:int -> ?domains:int -> t -> unit
(** Run the grid. One shard: its simulator ([~domains] beyond 1 is
    rejected — there is nothing to run in parallel). Several shards:
    builds the runtime on first call (validating that every cross-shard
    segment has strictly positive latency) and executes all shards on
    [~domains] worker domains (default 1) under conservative
    synchronization. *)

val now : t -> int
(** Global virtual time: the maximum across shard clocks. *)

val spawn : t -> Node.t -> ?name:string -> (unit -> unit) -> Engine.Proc.handle

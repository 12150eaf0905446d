(** Group communicator: collective operations on a Circuit.

    A [Group.t] is one member's endpoint for MPI-style collectives —
    {!barrier}, {!bcast}, {!reduce}, {!allreduce}, {!gather}, {!scatter} —
    over the ranks of a {!Circuit.Ct} group. Two strategies:

    - [Flat]: topology-blind rank-0 star. Every operation is a direct
      exchange with the root, so a grid of SAN islands joined by a WAN pays
      one WAN crossing {e per rank} outside the root's island.
    - [Multilevel]: topology-aware, following MPICH-G2's multilevel scheme.
      The group's ranks are partitioned into clusters by {!Selector.Netdb}
      (connected components of the SAN/LAN adjacency); inside each cluster
      the operation runs over a binomial tree, and a single designated
      proxy rank per cluster (the Netdb leader, or the root in its own
      cluster) participates in a top-level binomial tree across clusters —
      so each WAN link is crossed exactly once per phase, [C - 1] crossings
      for [C] clusters instead of [N - island] for [N] ranks.

    Operations come in two forms. The [i]-prefixed forms are non-blocking:
    they start the collective and invoke a completion callback when the
    member's part is done (they rely on {!Circuit.Ct.end_packing}'s
    [on_sent] hook, so successive tree stages pipeline without suspending).
    The plain forms block the calling {!Engine.Proc} process. Every member
    must call the same operation with the same root — the group runs one
    collective at a time per member (no overlap), but members may be in
    consecutive operations simultaneously; late messages are buffered by
    sequence number.

    Per-member state is O(1)-allocated: flat-array membership and slots
    sized once at creation, one receive handler and one send-completion
    hook per member, and no per-round closure allocation — only the
    per-operation completion callback. This keeps thousand-rank simulated
    groups tractable.

    Reductions are byte-wise (every rank contributes an equal-length
    buffer), with associative-commutative operators so tree shape cannot
    change the result.

    {2 Self-healing membership}

    A group created with [?heal] is {e self-healing}: each member runs a
    {!Detect} phi-accrual failure detector (heartbeats piggybacked on the
    group's own frames; monitors are the member's cluster-ring neighbours
    plus, for cluster proxies, the other proxies) and the group survives
    member crashes. When a monitor confirms a member dead it floods an
    eviction to every live rank; each member marks the rank dead, bumps
    its membership {e epoch} (frames are tagged with the epoch and a
    digest of the dead set, so pre-eviction frames are discarded and
    divergent views re-converge by exchanging dead sets), re-partitions
    the {!Selector.Netdb} topology ([Netdb.evict] re-elects a cluster
    proxy if the dead rank was one), and transparently rewinds and
    retries the in-flight collective over the shrunken tree — each member
    keeps a pristine copy of its contribution until the operation
    commits, so a retried reduction refolds the correct value minus the
    dead rank. Members that had already committed the operation re-serve
    their committed record when a retrying neighbour pulls them.

    Rootless operations (barrier, allreduce) survive even the root's
    death (re-rooting to the lowest live rank); rooted operations whose
    root dies fail with a clean [Error] {e without} poisoning the group —
    the next operation proceeds over the survivors. A member that learns
    it was itself evicted (a false positive under extreme delay) poisons
    itself.

    Healing mode runs every operation in two phases (up-first ops gain an
    explicit commit broadcast, down-first ops an ack wave), costing one
    extra tree traversal of empty frames; without [?heal] nothing
    changes — the wire format, message counts and virtual-clock timings
    are byte-identical to a non-healing build. *)

exception Failed of string
(** Raised by the blocking forms when the operation fails (deadline
    exceeded, member disagreement, poisoned group). *)

type strategy = Flat | Multilevel

type redop =
  | Sum  (** byte-wise sum modulo 256 *)
  | Max  (** byte-wise maximum *)
  | Bxor  (** byte-wise exclusive or *)

type t
(** One member's view of the group (bound to its rank). *)

val create :
  ?strategy:strategy -> ?deadline_ns:int -> ?heal:Detect.config ->
  Padico.t -> name:string -> Simnet.Node.t list -> t array
(** Build a group over the nodes (rank = list position): one circuit via
    {!Padico.circuit}, one {!Selector.Netdb} partition, one member
    endpoint per rank. [strategy] defaults to [Multilevel]. [deadline_ns],
    when given, bounds every operation: a member whose operation has not
    completed after that much virtual time fails it with an [Error] (and
    poisons the group) instead of hanging — the fault-injection story for
    collectives. The deadline is one cancellable timer per operation,
    cancelled when the operation completes on every backend, so on the
    wall clock no timer outlives its operation. [heal], when given, makes the group self-healing (see
    above) with the detector tuned by the config; healing groups keep
    their detectors sweeping between operations, so call {!retire} when
    done with a group or a virtual-clock run will never quiesce. *)

val name : t -> string
val rank : t -> int
val size : t -> int
val strategy : t -> strategy
val netdb : t -> Selector.Netdb.t
(** The topology partition the multilevel trees are built from (shared by
    all members). *)

val poisoned : t -> string option
(** Once a member's operation fails, the member refuses further operations
    with this diagnostic (messages of the failed operation may still be in
    flight, so consistency cannot be re-established locally). *)

(** {1 Non-blocking operations}

    Callbacks fire exactly once, possibly synchronously (single-member
    groups, poisoned groups). *)

val ibarrier : t -> ((unit, string) result -> unit) -> unit

val ibcast :
  t -> root:int -> Engine.Bytebuf.t ->
  ((Engine.Bytebuf.t, string) result -> unit) -> unit
(** The payload argument is read at the root only; every member's callback
    receives the root's payload. *)

val ireduce :
  t -> root:int -> op:redop -> Engine.Bytebuf.t ->
  ((Engine.Bytebuf.t option, string) result -> unit) -> unit
(** Combine all members' equal-length contributions with [op]; the root's
    callback receives [Some] result, other members [None]. *)

val iallreduce :
  t -> op:redop -> Engine.Bytebuf.t ->
  ((Engine.Bytebuf.t, string) result -> unit) -> unit
(** Reduce to rank 0, then broadcast: every member receives the result. *)

val igather :
  t -> root:int -> Engine.Bytebuf.t ->
  ((Engine.Bytebuf.t array option, string) result -> unit) -> unit
(** The root's callback receives all contributions indexed by rank. *)

val iscatter :
  t -> root:int -> Engine.Bytebuf.t array ->
  ((Engine.Bytebuf.t, string) result -> unit) -> unit
(** The array (one payload per rank, read at the root only) is routed down
    the tree: each member's callback receives its own entry. *)

(** {1 Blocking operations}

    Process-context wrappers ({!Engine.Proc.suspend}); raise {!Failed} on
    error. *)

val barrier : t -> unit
val bcast : t -> root:int -> Engine.Bytebuf.t -> Engine.Bytebuf.t
val reduce :
  t -> root:int -> op:redop -> Engine.Bytebuf.t -> Engine.Bytebuf.t option
val allreduce : t -> op:redop -> Engine.Bytebuf.t -> Engine.Bytebuf.t
val gather :
  t -> root:int -> Engine.Bytebuf.t -> Engine.Bytebuf.t array option
val scatter : t -> root:int -> Engine.Bytebuf.t array -> Engine.Bytebuf.t

(** {1 Accounting}

    WAN crossings are counted whenever a collective message's source and
    destination ranks live in different Netdb clusters — the quantity the
    multilevel strategy exists to minimize. Shared by all members;
    registered as global metrics [coll.<name>.wan_msgs] / [.wan_bytes]. *)

val wan_messages : t -> int
val wan_bytes : t -> int

(** {1 Self-healing membership} *)

val healing : t -> bool
(** Whether the group was created with [?heal]. *)

val epoch : t -> int
(** Current membership epoch — the number of evicted ranks. 0 on a
    non-healing group. *)

val live_count : t -> int
(** Ranks not (yet) evicted. [size] on a non-healing group. *)

val dead_ranks : t -> int list
(** Evicted ranks, ascending. *)

val detector : t -> Detect.t option
(** This member's failure detector, for stats and phi inspection. *)

val restarts : t -> int
(** How many times this member rewound and retried an in-flight
    operation after an eviction. *)

val evictions : t -> int
(** How many member deaths this member has recorded. *)

val retire : t -> unit
(** Stop this member's failure detector and cancel any armed operation
    deadline. A healing group's detectors re-arm their sweep forever;
    a simulation (or a Hostio reactor) only quiesces once every member
    is retired. No-op on non-healing groups. *)

(** Deterministic fault injection: arm a {!Plan.t} against a grid.

    [apply net plan] resolves every link / node name eagerly (so a typo
    fails before the run starts) and schedules each event on the clock of
    the shard that owns its target: a node's shard for a crash or
    restart, the shard a segment lies on for a link fault or partition
    (so on an island-sharded grid the fault lands at its instant on that
    island's timeline). A [Heal] fires once per shard, clearing the
    segments that lie on it. Events mutate the {!Simnet.Segment} fault
    overlay and
    {!Simnet.Node} up-state; nothing else in the stack knows the injector
    exists. Windowed actions ([Loss_burst], [Latency_spike]) schedule their
    own restore event at [at_ns + duration_ns].

    Determinism: the injector draws no randomness, and frames dropped at
    send by a link fault consume none either (see {!Simnet.Segment.send}),
    so two runs with the same seed and the same plan are bit-identical —
    the property the
    determinism test and the E10 bench rely on.

    Every fired event is recorded as a [Padico_obs.Event.Fault] trace
    instant (anchored on the lowest-id node attached to the target, a
    deterministic choice) and counted in the global
    ["fault.injected"] metric. *)

type t

val apply : ?base_ns:int -> Simnet.Net.t -> Plan.t -> t
(** Raises [Invalid_argument] when a plan references an unknown link or
    node name, or puts a link fault or partition on a segment spanning
    several shards (every spanned shard's senders read that segment's
    overlay, so no single shard's event can change it at one instant).
    Segment names must be unambiguous within the plan's targets.
    [base_ns] (default 0) shifts every event: plans are authored relative
    to a reference point — e.g. session establishment, which on the host
    backend happens at an unpredictable wall-clock offset — and armed
    against the absolute clock. *)

val fired : t -> int
(** Number of plan events executed so far (restore events of windowed
    actions and each shard's [Heal] included). *)

val pending : t -> int
(** Scheduled events (including window restores) not yet executed. *)

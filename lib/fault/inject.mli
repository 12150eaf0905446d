(** Deterministic fault injection: arm a {!Plan.t} against a grid.

    [apply net plan] resolves every link / node name eagerly (so a typo
    fails before the run starts) and arms each event once per shard that
    holds part of its target, every part at the event's instant: the
    node's shard for a crash or restart, each shard a segment spans for a
    link fault or window, each shard holding a named node for a
    partition, every shard for a [Heal]. A part changes only its own
    shard's ports of the {!Simnet.Segment} fault overlay (or its node's
    {!Simnet.Node} up-state), so a WAN fault or a partition across island
    shards lands at its instant on each island's timeline. Nothing else
    in the stack knows the injector exists. Windowed actions
    ([Loss_burst], [Latency_spike]) schedule their own restore event at
    [at_ns + duration_ns].

    The parts go onto other shards' clocks, so on a grid of several
    shards a plan must be armed between runs; a one-shard grid may also
    arm one mid-run (e.g. with [~base_ns] at the current instant).

    Determinism: the injector draws no randomness, and frames dropped at
    send by a link fault consume none either (see {!Simnet.Segment.send}),
    so two runs with the same seed and the same plan are bit-identical —
    the property the determinism test and the E10 bench rely on.

    Every part is recorded as a [Padico_obs.Event.Fault] trace instant,
    anchored on the lowest-id node of its shard's share of the target (a
    deterministic choice, never a node of another shard); every plan
    event is counted once in the global ["fault.injected"] metric. *)

type t

val apply : ?base_ns:int -> Simnet.Net.t -> Plan.t -> t
(** Raises [Invalid_argument] when a plan references an unknown link or
    node name. Segment names must be unambiguous within the plan's targets.
    [base_ns] (default 0) shifts every event: plans are authored relative
    to a reference point — e.g. session establishment, which on the host
    backend happens at an unpredictable wall-clock offset — and armed
    against the absolute clock. *)

val fired : t -> int
(** Number of plan events executed so far, restore events of windowed
    actions included. An event counts once, however many shards it fires
    on. *)

val pending : t -> int
(** Scheduled events (including window restores) not yet executed. *)

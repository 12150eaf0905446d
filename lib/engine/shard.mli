(** Conservative parallel discrete-event runtime over topology shards.

    Partitions a simulation into shards — one {!Sim.t} heap each — and
    executes them on a pool of OCaml 5 domains with null-message /
    lower-bound-timestamp (LBTS) synchronization. Cross-shard events
    travel as timestamped frames through bounded SPSC channels, one per
    (source, destination) shard pair; the per-channel {e lookahead} (the
    minimum link latency between the two shards, strictly positive)
    bounds how far a shard may run ahead of its peers' published clocks.

    Determinism: the shard partition comes from the topology, never from
    the worker count, and frames merge with local events by the
    canonical key (timestamp, source shard, channel push order) — so a
    run over S shards is byte-identical whether 1 or N domains drive it.
    Simnet runs every grid on it ([Net.create ~shards]); a one-shard grid
    is a 1x1 lookahead matrix with no channel. *)

type t

val create : ?ring_capacity:int -> lookahead:int array array -> Sim.t array -> t
(** [create ~lookahead sims] builds a runtime over [sims] (one per
    shard). [lookahead.(i).(j)] is the minimum delay, in virtual ns, of
    any frame posted from shard [i] to shard [j] — it must be strictly
    positive for every pair that ever communicates (use [max_int] for
    pairs that cannot: they get no channel). [ring_capacity] (default
    4096, rounded up to a power of two) sizes the SPSC ring of each pair
    with a finite lookahead; overflow degrades to a
    producer-side parking list, throttling the producer's published
    bound rather than blocking. Raises [Invalid_argument] on a
    non-square matrix or a non-positive cross-shard lookahead. *)

val shard_count : t -> int

val sim : t -> int -> Sim.t
(** The shard's simulator. *)

val now : t -> int
(** The virtual time of the caller: inside an item a worker executes, the
    executing shard's clock; otherwise shard 0's, which between runs that
    were not stopped is every shard's clock (see {!run}). *)

val post : t -> src:int -> dst:int -> ts:int -> (unit -> unit) -> unit
(** [post t ~src ~dst ~ts f] schedules [f] to run on shard [dst] at
    virtual time [ts]. Must be called from shard [src]'s worker while it
    executes (the simnet segment send path), with
    [ts >= now(src) + lookahead(src, dst)] — the conservative protocol's
    correctness rests on that floor. [src = dst] degrades to a plain
    [Sim.at]. *)

val run : ?domains:int -> ?until:int -> t -> unit
(** [run ~domains t] executes every shard to global quiescence (or
    [until]) on [domains] worker domains (default 1; clamped to the
    shard count; the calling domain is one of the workers). Terminates
    via an exact global-quiescence ledger — no timeout heuristics.
    Every run may be bounded: the prologue seeds each shard's published
    bound with the global minimum next timestamp, so items injected
    between runs are safe. Clock semantics on exit mirror {!Sim.run}, for
    one grid clock: unless the run was stopped, every shard ends at
    [until] when work remains beyond it, else at the latest shard clock
    (clocks never move backward). [Sim.stop] from inside any event ends
    the whole parallel run and leaves each clock at its shard's last
    item. A worker exception aborts the run and is re-raised here. Not
    reentrant. *)

(** {1 Introspection (tests, benches)} *)

val executed : t -> int -> int
(** Events + frames executed by shard [i] since creation; over a run, the
    growth of its simulator's {!Sim.events_dispatched}. *)

val posted : t -> int -> int
(** Cross-shard frames posted by shard [i] since creation. *)

(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic element of the simulation (packet loss, jitter, workload
    generation) draws from an explicit [Rng.t], so whole-grid simulations are
    reproducible from a single seed.

    The state is kept unboxed: {!int} and {!bool} allocate nothing, and
    {!float} only its boxed result. Segments draw loss once per frame. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator; [t] advances. *)

val stream : t -> int -> t
(** [stream t i] is the [i]-th keyed child of [t]'s current state; [t]
    does {e not} advance. A pure function of (state, [i]): any caller
    asking for the same index gets the same stream regardless of order —
    the basis for per-shard and per-port streams in the sharded engine. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from Exp(1/mean). *)

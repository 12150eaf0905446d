(** AdOC-style adaptive online compression (Jeannot, Knutsson & Björkman,
    2002): compress a stream chunk by chunk, but only while the CPU can
    compress faster than the network drains — on fast links compression is
    skipped automatically, on slow links it multiplies the effective
    bandwidth of compressible data.

    This module is the pure part: the per-chunk body and the adaptation
    policy. {!Vlink.Vl_filter.adoc} frames the bodies and wires them to a
    transport. *)

(** Per-chunk decision state. *)
type t

val create : link_bandwidth_bps:float -> t
(** [link_bandwidth_bps] is the estimated drain rate of the underlying
    link. *)

type decision = Compress | Pass

val decide : t -> decision
(** Current policy: compress while the compressor's throughput
    ({!Calib.compress_per_byte_ns}) exceeds the link drain rate, or while
    recent ratio shows the data is compressible enough that
    [compressed_bytes / compress_time] beats the link rate. *)

val observe : t -> original:int -> compressed:int -> unit
(** Feed back the outcome of a compressed chunk (moving-average ratio). *)

val recent_ratio : t -> float
(** compressed/original moving average (optimistic 0.5 prior). *)

(** {1 Bodies} *)

val encode : t -> Engine.Bytebuf.t -> Engine.Bytebuf.t * decision
(** Encode one chunk as [u8 flag | payload]. [Compress] says the
    compressor ran; when its output would be larger than the input, the
    body still carries the raw chunk (the flag says which). *)

val decode :
  Engine.Bytebuf.t -> (Engine.Bytebuf.t * decision, string) result
(** The chunk a body carries, and [Compress] when it had to be inflated.
    [Error] on an empty body, an unknown flag or a corrupt compressed
    payload. *)

val overhead : int
(** Bytes a body adds to its chunk at most (the flag). *)

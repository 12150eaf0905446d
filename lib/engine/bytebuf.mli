(** Byte-buffer slices and scatter/gather vectors.

    Payloads travel through the stack as [Bytebuf.t] slices so that layers
    can prepend headers or split segments without copying; the copy-strategy
    of each middleware (a central theme of the paper's evaluation) is then an
    explicit, observable choice. [copies] counts every byte materially
    copied through {!blit}-based operations, which the benchmarks use to
    verify zero-copy claims. *)

type t = private { data : bytes; off : int; len : int }

val create : int -> t
(** A fresh zero-filled buffer of the given length. *)

val create_uninit : int -> t
(** A fresh buffer whose contents are unspecified, for a caller that
    overwrites every byte before anyone reads it (a copy, a gather, a
    reassembly): it skips {!create}'s zero fill. *)

val of_bytes : bytes -> t
val of_string : string -> t
val to_string : t -> string

val length : t -> int
val is_empty : t -> bool

val sub : t -> int -> int -> t
(** [sub b off len] is a no-copy sub-slice. Bounds-checked. *)

val split : t -> int -> t * t
(** [split b n] is [(sub b 0 n, sub b n (length b - n))]. *)

val concat : t list -> t
(** [concat parts] copies all parts into one fresh contiguous buffer. *)

val copy : t -> t
(** Materialize a private copy (counted). *)

val blit : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit

val blit_dma : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
(** Same as {!blit} but not recorded by {!copies_performed}: models hardware
    DMA placement (e.g. GM reassembling fragments into the posted receive
    buffer), which costs no host CPU and must not fail the zero-copy
    audit. *)

val fill_pattern : t -> seed:int -> unit
(** Fill with a deterministic byte pattern (for integrity checks): byte [i]
    is [(seed + 31 i) mod 256]. Written one 256-byte period at a time with
    blits; allocates nothing. *)

val fill_zero : t -> unit
(** Fill with zeros — a maximally compressible payload for AdOC tests. *)

val fill_random : t -> Rng.t -> unit
(** Fill with pseudo-random bytes — an incompressible payload. *)

val equal : t -> t -> bool
val checksum : t -> int
(** A 62-bit non-negative checksum of the contents, for integrity checks:
    FNV-style [h <- (h xor w) * 0x100000001b3] over the 64-bit
    little-endian words, then over the tail bytes one by one, from the
    64-bit offset basis [0xcbf29ce484222325]; the length is xored in and
    the murmur3 64-bit finaliser applied, and the result is cut to 62 bits.
    Order-dependent, independent of the slice's offset in its backing
    buffer, and changed by every single-bit change of the contents
    (checked exhaustively up to 40 bytes). Not cryptographic: an
    adversary can forge collisions. Allocates nothing. *)

val get : t -> int -> char
val set : t -> int -> char -> unit

(** {2 Integer accessors}

    Little-endian. A [k]-byte accessor at [i] is one bounds check
    ([0 <= i <= length - k], else [Invalid_argument]) and one load or
    store, and allocates nothing (the [int64] that {!get_i64} returns or
    {!set_i64} takes is boxed across the module boundary; {!get_int} and
    {!set_int} avoid it). Setters keep the low [8k] bits of the value. *)

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit
val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit
val get_u32 : t -> int -> int
val set_u32 : t -> int -> int -> unit
val get_i64 : t -> int -> int64
val set_i64 : t -> int -> int64 -> unit

val get_int : t -> int -> int
(** [get_int b i] is the 64-bit word at [i] as an [int] (its top bit
    dropped). The same bytes as [Int64.to_int (get_i64 b i)], without
    boxing an [int64] across the module boundary. *)

val set_int : t -> int -> int -> unit
(** [set_int b i v] writes [v] sign-extended to 64 bits: the same bytes as
    [set_i64 b i (Int64.of_int v)], without boxing. *)

val copies_performed : unit -> int
(** Total bytes copied through this module since start (or last reset). *)

val reset_copy_counter : unit -> unit

(** {2 Small-buffer pool}

    A free list of fixed-size slabs for short-lived small buffers on hot
    paths (MadIO header encode is the motivating user: one 14-byte header
    per message). Unlike {!create}, a pooled buffer's contents are
    {e unspecified} — the previous user's bytes are still there — so
    callers must overwrite every byte they will read. *)
module Pool : sig
  val slab : int
  (** Slab size in bytes. Requests larger than this bypass the pool. *)

  val alloc : int -> t
  (** [alloc n] is a length-[n] buffer, reusing a pooled slab when
      [n <= slab] and one is free. Contents are unspecified. *)

  val release : t -> unit
  (** Return a buffer to the pool. The caller asserts that no live slice
      of it remains; the slab is handed to the next {!alloc} as-is.
      Buffers that did not come from the pool are ignored. *)

  val pool_hits : unit -> int
  (** Allocations served by reusing a pooled slab. *)

  val pool_misses : unit -> int
  (** Allocations that had to take fresh memory. *)

  val pooled : unit -> int
  (** Slabs currently sitting in the free list. *)

  (** {3 Size-classed slabs}

      A second free-list family for {e long-lived} fixed-size buffers —
      per-connection TCP send rings under connect/disconnect churn. Each
      distinct requested length is its own class; contents of a reused
      slab are unspecified. *)

  val alloc_bytes : int -> bytes
  (** [alloc_bytes n] is an [n]-byte raw buffer, reusing a released one of
      the same length when available. Raises [Invalid_argument] when
      [n <= 0]. *)

  val release_bytes : bytes -> unit
  (** Park a buffer for the next same-length {!alloc_bytes}. The caller
      asserts no live reference remains. *)

  val sized_hits : unit -> int
  val sized_misses : unit -> int

  val sized_parked_bytes : unit -> int
  (** Total bytes currently parked in the sized free lists. *)

  val reset : unit -> unit
end

(** In-memory byte-stream queue shared by memory-backed VLink drivers
    (MadIO, loopback, parallel streams, filters, VRP). Chunks in, bounded
    byte reads out, without copying.

    A queue optionally carries high/low watermarks used by flow control:
    producers should stop pushing once [above_high] and may resume once
    [below_low]. The watermarks are advisory — [push] never refuses data,
    so a producer that ignores [writable] still works (just unbounded),
    and in-flight bytes that arrive after the high watermark trips are
    never dropped. *)

type t

val create : ?high:int -> ?low:int -> unit -> t
(** [create ?high ?low ()] — [high] is the high watermark in bytes
    (default: unbounded, [max_int]); [low] the low watermark (default
    [high / 2] when [high] is given, else unbounded). Raises
    [Invalid_argument] unless [0 <= low <= high]. *)

val push : t -> Engine.Bytebuf.t -> unit
(** Append a chunk. Zero-length chunks are ignored (they carry no bytes
    and would otherwise produce zero-length pops). Never blocks or drops,
    even above the high watermark. *)

val pop : t -> max:int -> Engine.Bytebuf.t option
(** Up to [max] bytes; [None] when the queue is empty or [max <= 0].
    Single-chunk pops are no-copy. *)

val pop_exact : t -> int -> Engine.Bytebuf.t
(** [pop_exact t n] returns exactly [n] bytes, coalescing across chunk
    boundaries (no-copy when the front chunk suffices). [pop_exact t 0]
    returns an empty buffer and consumes nothing. Raises
    [Invalid_argument] when [n < 0] or fewer than [n] bytes are queued. *)

val length : t -> int
val is_empty : t -> bool

val peak : t -> int
(** Highest [length] ever observed — the bounded-memory witness. *)

val high_watermark : t -> int
val low_watermark : t -> int

val above_high : t -> bool
(** [length >= high]: producers should pause. *)

val below_low : t -> bool
(** [length <= low]: paused producers may resume. *)

val writable : t -> bool
(** [length < high]: there is room for more without tripping the
    high watermark. *)

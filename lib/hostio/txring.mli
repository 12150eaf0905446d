(** A stream's send buffer: a byte ring of the bytes accepted and not yet
    written, in order.

    The ring holds no memory while nothing is pending. The first {!push}
    takes a power-of-two block (4 KiB at least) from
    {!Engine.Bytebuf.Pool}'s size-classed slabs; a push that needs more
    room moves the pending bytes into a larger block, up to [cap]; the
    block goes back to the pool once {!write_front} drains it, or on
    {!clear}. *)

type t

val create : cap:int -> t
(** An empty ring that may grow to [cap] pending bytes. Raises
    [Invalid_argument] unless [cap] is a power of two of at least 4096. *)

val length : t -> int
(** Pending bytes. *)

val space : t -> int
(** [cap - length]: how many more bytes {!push} accepts. *)

val held_bytes : t -> int
(** Size of the block the ring holds; 0 while nothing is pending. *)

val push : t -> Engine.Bytebuf.t list -> int -> unit
(** [push t pieces n] copies the first [n] bytes of the pieces'
    concatenation in behind the pending bytes, at most two blits per
    piece around the ring's end ({!Engine.Bytebuf.copies_performed}
    counts [n]). Raises [Invalid_argument] when [n > space t]. *)

val write_front : t -> (bytes -> int -> int -> int) -> int
(** [write_front t write] hands the pending bytes' first contiguous run —
    up to the ring's end — to [write buf off len], which returns how
    many of them it took (a prefix); those leave the ring and the count
    is returned. 0 without a call when nothing is pending. Exceptions
    from [write] leave the ring as it was. *)

val clear : t -> unit
(** Drop the pending bytes and give the block back to the pool. *)

(** Stacked filter adapters: a WAN method that transforms the byte stream
    of any other VLink — AdOC compression, the cipher — as one descriptor
    parameterised by a {!codec}. Both ends must stack the same codecs in
    the same order; the selector makes that decision once for both sides.

    The filter cuts the outgoing stream into chunks of at most {!chunk}
    bytes, frames each encoded body as [u32 len | body], and decodes
    frames back into the incoming stream. It owns the flow control:
    writes are accepted only up to the inner link's write space (never
    absorbed into a hidden queue, never cut into silly small frames), and
    the decode loop pauses when more than [rx_high] decoded bytes sit
    unread. *)

type codec = {
  name : string;  (** driver name and trace place: ["adoc"], ["crypto"] *)
  overhead : int;  (** most bytes a body adds to its chunk *)
  encode : Engine.Bytebuf.t -> Engine.Bytebuf.t * float;
      (** the body for one chunk, and the CPU ns per chunk byte it cost *)
  decode :
    Engine.Bytebuf.t -> (Engine.Bytebuf.t * float, string) result;
      (** the chunk a body carries, and the CPU ns per chunk byte; [Error]
          on corruption *)
}

val adoc : link_bandwidth_bps:float -> codec
(** AdOC: each chunk is compressed or passed as {!Methods.Adoc} decides
    for a link draining [link_bandwidth_bps]; only the compressor and the
    inflater cost CPU. Stateful: one value per descriptor. *)

val cipher : key:Methods.Crypto.key -> codec
(** The authenticated stream cipher ({!Methods.Crypto}), inserted on
    untrusted links. A wrong key or a tampered body is an [Error]. *)

val wrap : ?rx_high:int -> codec -> Vl.t -> Vl.t
(** [wrap codec inner] returns a descriptor whose writes are encoded and
    whose reads are decoded. Closing it closes [inner] after the last
    accepted frame. A corrupt frame fails it with [Vl.Failed]. The decode
    loop pauses above [rx_high] unread bytes (default 256 KiB) and resumes
    below a quarter of it. *)

(** {1 Framing} *)

val chunk : int
(** Largest chunk a frame carries (16 KiB). *)

val frame : codec -> Engine.Bytebuf.t -> Engine.Bytebuf.t * float
(** [frame codec c] is the wire frame [u32 len | body] of one chunk, and
    the CPU ns per byte its encoding cost. *)

type framer
(** The receiving side: frames reassembled from arbitrary stream
    slices. *)

val framer : codec -> framer

val feed : framer -> Engine.Bytebuf.t -> (Engine.Bytebuf.t list * int, string) result
(** The chunks the frames completed by this slice carry, in order, and
    the CPU ns their decoding cost. [Error] on a length above
    [chunk + overhead] or a body the codec rejects. *)

val pending : framer -> int
(** Bytes buffered and not yet decoded. *)

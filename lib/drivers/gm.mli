(** GM-like system-level driver for SAN segments (Myrinet, SCI).

    Message-based, reliable, in-order, zero-copy: large messages are
    fragmented to the hardware MTU and reassembled by DMA into the
    destination buffer without host copies. The defining constraint the
    paper builds on: the hardware offers only a {e bounded number of
    channels} (2 on Myrinet, 1 on SCI), which is why NetAccess/MadIO must
    add logical multiplexing above. *)

type t
(** A GM port: one node's endpoint on one SAN segment. *)

type channel

exception No_channel_left
(** Raised by {!open_channel} when the hardware channels are exhausted. *)

val attach : Simnet.Segment.t -> Simnet.Node.t -> t
(** [attach seg node] opens the GM port of [node] on [seg]. One port per
    (segment, node); re-attaching returns the existing port. *)

val node : t -> Simnet.Node.t
val segment : t -> Simnet.Segment.t

val max_channels : t -> int
(** Hardware channel budget: 2 for Myrinet, 1 for SCI, 8 for loopback. *)

val open_channel : t -> id:int -> channel
(** Open hardware channel [id] (same [id] on every node forms one
    communication space). Raises {!No_channel_left} when [id] is outside the
    hardware budget, [Invalid_argument] if already open. *)

val close_channel : channel -> unit
val channel_id : channel -> int
val channels_in_use : t -> int

val send : channel -> dst:int -> Engine.Bytebuf.t -> unit
(** Post a message send towards node [dst]. Fragmentation, per-fragment DMA
    cost and wire time are modeled; completion is implicit (reliable SAN).
    A fragment that lies in one buffer travels as a view of it, read by
    DMA on arrival: the sender must leave those bytes alone until then.
    The receiver always gets a buffer of its own. *)

val sendv : channel -> dst:int -> Engine.Bytebuf.t list -> unit
(** Scatter/gather send: the iovec is walked without host copies. A
    fragment spanning several entries is gathered by the NIC when the send
    is posted, into a buffer the frame owns, so the entries may be reused
    once [sendv] returns; the receiver of a single-fragment message gets
    that buffer itself. The receiver gets one contiguous message. This is
    what lets MadIO prepend its multiplexing header in the same first
    packet (header combining). *)

val set_recv : channel -> (src:int -> Engine.Bytebuf.t -> unit) -> unit
(** Register the message receive handler for this channel on this port. *)

val messages_sent : t -> int
val messages_received : t -> int

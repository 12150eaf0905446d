(** TCP-like reliable byte-stream driver over a segment.

    A real protocol implementation, not a bandwidth formula: 3-way
    handshake, sliding window with receiver flow control, cumulative ACKs,
    out-of-order reassembly, RTT estimation (Karn), retransmission timeout
    with exponential backoff, slow start / congestion avoidance / fast
    retransmit + fast recovery (Reno-class), zero-window probing, FIN/RST.

    Per-connection timers (RTO, zero-window persist) are armed on the
    node's {!Engine.Clock} and fire at their exact deadline; an ACK's
    cancel takes the RTO out of the event queue at once, so 100k idle
    connections hold no dead timer events.
    Fully closed connections (FIN handshake complete, RST, or handshake
    give-up) leave the stack's table, and a late segment for one is
    answered with RST. An active open gives up after 5 SYNs, a half-open
    passive one after 5 SYN-ACKs, and an established connection after 10
    consecutive unanswered retransmissions ([Reset]).

    This matters for the paper's WAN experiments: a single stream collapses
    under random loss (parallel streams then recover the bandwidth, E4), and
    5–10 % loss pushes TCP into timeout-dominated behaviour around
    150 KB/s where VRP sustains ~3× more (E5).

    The API is callback/event based (non-blocking), mirroring BSD sockets
    driven by a poll loop; SysIO and the personalities build blocking
    behaviour above it. *)

type stack
(** Per-(node, segment) protocol instance. *)

type conn

type event =
  | Established  (** handshake completed *)
  | Readable  (** new in-order data available *)
  | Writable  (** send-buffer space reopened *)
  | Peer_closed  (** FIN consumed after all data *)
  | Reset  (** connection refused or reset *)

type state =
  | Syn_sent
  | Syn_received
  | Established_st
  | Fin_wait
  | Close_wait
  | Closed_st

val attach : Simnet.Segment.t -> Simnet.Node.t -> stack
(** One stack per (segment, node); idempotent. Raises [Invalid_argument]
    for a node id above 32767 (connection keys pack node ids in 15 bits). *)

val node : stack -> Simnet.Node.t
val segment : stack -> Simnet.Segment.t
val mss : stack -> int

val listen :
  ?sndbuf:int -> ?rcvbuf:int -> stack -> port:int -> (conn -> unit) -> unit
(** Accept connections on [port]; the callback fires once per connection
    when it reaches [Established]. Raises if the port is taken or outside
    [0, 2{^24}). [sndbuf] / [rcvbuf] size the buffers of {e accepted}
    connections (default {!default_bufsize}) — edge gateways listen with
    small buffers so 100k accepted connections fit a fixed byte budget. *)

val unlisten : stack -> port:int -> unit

val connect :
  ?sndbuf:int -> ?rcvbuf:int -> stack -> dst:int -> port:int -> conn
(** Active open. The returned connection is in [Syn_sent]; subscribe with
    {!set_event_cb} for [Established] / [Reset]. Buffer sizes default to
    {!default_bufsize}. The local port is the next one in the ephemeral
    range 32768–60999 (wrapping around) that has no connection to
    ([dst], [port]) in the stack's table; raises [Failure] when every one
    has, and [Invalid_argument] for a [port] outside [0, 2{^24}). *)

val default_bufsize : int

val set_event_cb : conn -> (event -> unit) -> unit

val state : conn -> state
val conn_node : conn -> Simnet.Node.t
val peer : conn -> int * int
(** (remote node id, remote port). *)

val local_port : conn -> int

val writev : conn -> Engine.Bytebuf.t list -> int
(** Gather-write: copy the pieces, in order, into the send buffer until it
    is full, then transmit once. Returns the bytes accepted — always a
    prefix of the pieces' concatenation (0 when full: wait for
    [Writable]). Pieces shorter than an MSS share segments: a run of
    sub-MSS pieces that fits the windows leaves as one segment. *)

val write : conn -> Engine.Bytebuf.t -> int
(** [writev c [b]]. *)

val write_space : conn -> int

val read : conn -> max:int -> Engine.Bytebuf.t option
(** Dequeue up to [max] bytes of in-order data; [None] when nothing is
    buffered. Freeing receive-buffer space widens the advertised window. *)

val readable_bytes : conn -> int

val peer_closed : conn -> bool
(** [true] once the peer's FIN has been processed. The [Peer_closed] event
    is edge-triggered and fires exactly once, into whatever callback was
    registered at that instant — a callback registered later must poll this
    to catch up on the missed edge. *)

val close : conn -> unit
(** Graceful close: FIN once the send buffer drains. *)

val abort : conn -> unit
(** Hard close: RST to peer, local state [Closed_st]. *)

(** Introspection for tests and benchmarks. *)
val cwnd : conn -> int
val ssthresh : conn -> int
val srtt_ns : conn -> int
val retransmits : conn -> int

(** [retransmit_breakdown c] is (timeouts, fast retransmits, partial-ack
    retransmits). *)
val retransmit_breakdown : conn -> int * int * int

val bytes_sent : conn -> int
val bytes_received : conn -> int

(** {2 Byte-budget accounting} *)

val reaped : stack -> int
(** Fully closed connections removed from the stack's table. *)

val conn_overhead_bytes : int
(** Heap retained by one idle established connection end (400 bytes:
    record, table slot, and the SysIO connection, readiness source and
    closure that watch it), a bound checked by measuring the live heap of
    10k idle connections; the basis of the per-connection byte budget. *)

val conn_resident_bytes : conn -> int
(** [conn_overhead_bytes] + send ring + buffered receive bytes (in-order
    and out-of-order). The send ring exists only while written data is
    unacknowledged: it is taken on [write] and returned once everything
    written has been acknowledged. So a connection that is idle, or
    whose every write has been acknowledged, reports exactly
    [conn_overhead_bytes]. *)

val conn_count : stack -> int

val resident_bytes : stack -> int
(** Sum of {!conn_resident_bytes} over the stack's table (O(connections);
    meant for gauges and the [flow --budget] report, not hot paths).
    Rings parked in the {!Engine.Bytebuf.Pool} are not counted. *)

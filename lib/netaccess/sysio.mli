(** NetAccess SysIO: arbitrated access to distributed-oriented resources.

    Using the socket API directly does not give reentrance or fair
    multiplexing: middleware using signal-driven I/O misbehaves, and one
    middleware busy-polling starves another using blocking I/O. SysIO
    instead manages a {e unique receipt loop} (the NetAccess dispatcher)
    that watches all open sockets and invokes user-registered callbacks when
    a socket becomes ready; callbacks are serialized, so there are no
    reentrance issues and no signals.

    Every watched connection, on either backend, reaches the loop the same
    way: it owns one {!Na_core} readiness source. Its transport events
    accumulate at the source (a pending [Readable] or [Writable] absorbs
    a new one of the same kind), and the source sits on the dispatcher's
    ready list at most once until drained, so idle connections cost
    nothing per dispatch round. Accepts are posted work items; UDP
    datagrams are droppable posts, shed under overload.

    SysIO is also the execution-backend boundary. A {!stack} is either the
    simulated TCP driver ([Drivers.Tcp], virtual clock) or a Hostio stream
    transport over real Unix sockets (monotonic clock) — chosen by the
    node's {!Engine.Clock.t}, so VLink adapters, Circuit and the
    conformance kit run unmodified on either backend. Host connections
    subscribe to their segment's link state: a fault-plan "link down"
    resets the real sockets the way a cable pull would. *)

type t

val get : Simnet.Node.t -> t
(** The node's SysIO subsystem (created on first use). *)

val node : t -> Simnet.Node.t

type stack
(** Per-(node, segment) transport instance — simulated TCP or Hostio. *)

type conn
(** A byte-stream connection on either backend. Events delivered for it use
    the [Drivers.Tcp.event] vocabulary on both. *)

val stack_on : t -> Simnet.Segment.t -> stack
(** Transport stack of this node on a (LAN/WAN/loopback) segment, creating
    it on first use. Simulated when the node runs on the virtual clock,
    Hostio-backed when it runs on a reactor's monotonic clock. *)

val stack_node : stack -> Simnet.Node.t
val stack_segment : stack -> Simnet.Segment.t

val tcp_stack : stack -> Drivers.Tcp.stack option
(** The simulated driver behind a sim-backend stack ([None] on host) — for
    tests and benchmarks that introspect TCP internals. *)

val udp_on : t -> Simnet.Segment.t -> Drivers.Udp.t
(** Simulated-backend only (VRP is remapped to stream transports on the
    host backend). *)

val watch : t -> conn -> (Drivers.Tcp.event -> unit) -> unit
(** Register the connection with the receipt loop: its transport events
    are dispatched through its readiness source to the (non-blocking)
    callback. A connection has at most one source; watching it again
    retargets that source. *)

val unwatch : t -> conn -> unit
(** Stop dispatching events for this connection and unregister its
    readiness source. Events still pending are dropped. *)

val listen :
  ?sndbuf:int -> ?rcvbuf:int -> t -> stack -> port:int -> (conn -> unit) ->
  unit
(** Arbitrated accept loop: new connections are handed to the callback from
    the dispatcher. The callback typically calls {!watch} on the new
    connection. On the host backend the real ephemeral port is registered
    in a process-wide rendezvous table keyed by (segment, node, logical
    port), so peers keep dialing logical ports. [sndbuf]/[rcvbuf] size the
    buffers of accepted sim connections (edge gateways listen small so
    100k connections fit a fixed byte budget); ignored on host stacks. *)

val host_listener_port : stack -> port:int -> int option
(** The OS port behind a host stack's listener on logical [port]; [None]
    on a sim stack or when nothing listens there. The rendezvous table is
    process-wide and {!Engine.Lifecycle.reset_registries} closes every
    listener in it. *)

val connect :
  ?sndbuf:int -> ?rcvbuf:int -> t -> stack -> dst:int -> port:int ->
  (conn -> Drivers.Tcp.event -> unit) -> conn
(** Active open with the event stream (including [Established]) routed
    through the connection's readiness source, as if {!watch}ed. [dst]/[port] are the logical node id and port
    on both backends; a host-backend dial to a port nobody listens on
    delivers [Reset], like a SYN answered by RST. *)

(** {2 Connection operations (the [Drivers.Tcp] data-plane contract)} *)

val writev : conn -> Engine.Bytebuf.t list -> int
(** Gather-write: the pieces go into the send buffer in order, as one
    transport write (one transmit pass on the sim driver, one send-queue
    chunk on the host backend). Returns the bytes accepted, a prefix of
    the concatenation; 0 = full, wait for [Writable]. *)

val write : conn -> Engine.Bytebuf.t -> int
(** [writev conn [b]]. *)

val write_space : conn -> int

val read : conn -> max:int -> Engine.Bytebuf.t option
(** Up to [max] in-order bytes; [None] when nothing is buffered. *)

val readable_bytes : conn -> int

val peer_closed : conn -> bool
(** True once the peer's FIN has been processed — the poll-after-subscribe
    catch-up for the edge-triggered [Peer_closed] event. *)

val conn_node : conn -> Simnet.Node.t

val close : conn -> unit
(** Graceful close: FIN once the send buffer drains. *)

val abort : conn -> unit
(** Hard close: RST to peer. *)

val watch_udp :
  t ->
  Drivers.Udp.t ->
  port:int ->
  (src:int -> src_port:int -> Engine.Bytebuf.t -> unit) ->
  unit

val events_dispatched : t -> int

(** Pending events of one readiness source, as a FIFO of small
    codes packed in one immediate int. [push] applies the coalescing rule:
    a [Readable] or [Writable] already pending absorbs a new one of the
    same kind; lifecycle events ([Established], [Peer_closed], [Reset])
    are appended in order. There is room for twenty codes; a connection
    needs at most five, since the transport fires each lifecycle event
    at most once. *)
module Event_fifo : sig
  type t

  val empty : t
  val is_empty : t -> bool
  val push : t -> Drivers.Tcp.event -> t

  val head : t -> Drivers.Tcp.event
  (** Oldest pending event; meaningless on [empty]. *)

  val tail : t -> t
  (** [t] without its oldest event. *)
end

(** {2 Byte-budget accounting (sim stacks)} *)

val conn_count : t -> int
(** Live connections across this node's sim stacks (also exported as the
    [conn.count] gauge). *)

val bytes_resident : t -> int
(** Total resident connection bytes (see
    {!Drivers.Tcp.conn_resident_bytes}); the [conn.bytes_resident]
    gauge. *)

val conns_reaped : t -> int
(** Fully closed connections removed from this node's sim stacks (see
    {!Drivers.Tcp.reaped}). *)

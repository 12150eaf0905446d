(** Real-socket byte streams with the [Drivers.Tcp] event vocabulary.

    A [Stream.t] wraps a non-blocking Unix socket registered with a
    {!Loop.t} and exposes the exact callback contract of the simulated TCP
    driver: [Established] on connect completion, [Readable] when new bytes
    arrive, [Writable] when send-buffer space reopens after a write that
    filled the buffer or came up short, [Peer_closed] exactly once when
    the peer's FIN is reached after all data has been drained, [Reset] on
    a connection reset. SysIO maps these 1:1 onto [Drivers.Tcp.event],
    which is what lets every VLink adapter run unmodified over real
    sockets.

    Two transports: real TCP over 127.0.0.1 ({!listen}/{!connect}) and a
    socketpair for same-process loopback ({!pair}). Writes copy into a
    bounded per-connection send ring and are flushed opportunistically —
    like a kernel socket buffer, [write] never loses accepted bytes even if
    the descriptor is momentarily full, and [write_space] tells producers
    when to stop. The ring is taken on the first write, grows with the
    bytes pending, and returns to a shared pool once drained and at
    teardown; reads land in one reused scratch block and are copied out
    at their exact size, so no read or write allocates a block sized for
    the worst case. *)

type t

type event =
  | Established
  | Readable  (** New bytes buffered; drain with {!read}. *)
  | Writable
      (** Send-buffer space reopened after a {!write} that filled the
          buffer or came up short. *)
  | Peer_closed
      (** Peer FIN reached: all sent bytes were read, none follow. Fires
          exactly once, only after the receive buffer is drained. *)
  | Reset

val set_event_cb : t -> (event -> unit) -> unit
(** Install the callback. Events that already happened (connection
    established, bytes buffered, FIN reached, reset) are re-announced
    asynchronously so a late subscriber misses nothing. *)

(** {2 Creating} *)

val connect : Loop.t -> ?host:string -> port:int -> unit -> t
(** Non-blocking connect to [host] (default ["127.0.0.1"]). [Established]
    or [Reset] is delivered from a later loop iteration. *)

type listener

val listen : Loop.t -> ?port:int -> (t -> unit) -> listener
(** Bind 127.0.0.1 (an ephemeral port when [port] is omitted) and deliver
    each accepted — already established — connection to the callback.
    Listeners are passive: they never keep {!Loop.run} alive. *)

val listener_port : listener -> int
(** The real bound port (the rendezvous value peers must {!connect} to). *)

val close_listener : listener -> unit

val pair : Loop.t -> t * t
(** A connected [socketpair] — the loopback/shared-memory transport. *)

(** {2 I/O (mirrors [Drivers.Tcp])} *)

val writev : t -> Engine.Bytebuf.t list -> int
(** Gather-write: the accepted prefix of the pieces' concatenation is
    copied into the send ring behind the bytes already pending, so it
    leaves in one [write(2)] when the descriptor has room (two when it
    wraps the ring's end). Returns the bytes accepted (0 = full or not
    yet established: wait for [Writable]). Accepted bytes are never
    lost. *)

val write : t -> Engine.Bytebuf.t -> int
(** [writev t [b]]. *)

val write_space : t -> int
(** Send-buffer space; 0 when full or closed. *)

val read : t -> max:int -> Engine.Bytebuf.t option
(** Up to [max] buffered bytes; [None] when nothing is pending. *)

val readable_bytes : t -> int

val held_bytes : t -> int
(** Buffer memory the stream holds: its send ring's capacity (0 when
    nothing is pending) plus the received bytes not yet read. *)

val peer_closed : t -> bool
(** True once the peer's FIN (or a reset) has been reached — the
    subscribe-after-event catch-up the sim driver also provides. *)

val close : t -> unit
(** Graceful: flush the send buffer, then close (FIN). Idempotent. *)

val abort : t -> unit
(** Hard close: pending data discarded, RST on the wire ([SO_LINGER 0]).
    App-initiated, so no local event is delivered. *)

val reset : t -> unit
(** Tear down as if the network reset the connection: pending data is
    discarded, an RST goes out, and [Reset] is delivered to the local
    subscriber. Used by the segment link-state bridge so a simulated-fault
    "carrier loss" kills real sockets the way a cable pull would. *)

val is_open : t -> bool

(** VLink: the distributed-oriented abstract interface.

    Client/server-oriented, dynamic connections, streaming. The API is a
    flexible asynchronous one, as in the paper: five primitives — [read],
    [write], [connect], [accept], [close] — that {e post} an operation and
    may return before completion; completion is observed by polling the
    descriptor or through a completion handler. Both synchronous (VIO,
    SysWrap) and asynchronous (AIO) personalities are thin wrappers over
    this interface.

    Concrete transports are {e VLink drivers} (Vl_sysio, Vl_madio,
    {!Vl_loopback}, {!Vl_pstream}, {!Vl_vrp}, {!Vl_filter}):
    they provide the byte-stream [ops] and raise events; this module owns
    request queues and completion logic. *)

type t

(** Connection lifecycle events visible on the descriptor. *)
type event =
  | Connected
  | Readable
  | Writable
  | Peer_closed
  | Failed of string

(** Byte-stream operations a driver implements. All non-blocking. *)
type ops = {
  o_write : Engine.Bytebuf.t -> int;  (** bytes accepted (0 = full) *)
  o_read : max:int -> Engine.Bytebuf.t option;
  o_readable : unit -> int;
  o_write_space : unit -> int;
  o_close : unit -> unit;
  o_driver : string;  (** driver name, for introspection *)
}

(** {1 Driver-side interface} *)

val create : Simnet.Node.t -> t
(** Fresh descriptor in connecting state (driver side). *)

val create_connected : Simnet.Node.t -> ops -> t
(** Fresh descriptor already connected (accept path). *)

val attach_ops : t -> ops -> unit
(** Complete the connection establishment (fires pending [Connect]). *)

val notify : t -> event -> unit
(** Drivers signal progress here; this module turns events into request
    completions. *)

(** {1 Application-side asynchronous interface} *)

type req
(** One posted asynchronous operation. *)

type completion =
  | Done of int  (** bytes transferred *)
  | Eof
  | Again
      (** Would block: only produced by [post_write ~nonblock:true] when
          the driver has no write space (or the link is still connecting).
          Nothing was queued — retry after {!on_writable} fires. *)
  | Error of string

val post_read : ?timeout_ns:int -> t -> Engine.Bytebuf.t -> req
(** Post a read into the buffer. Completes with [Done n] (1 ≤ n ≤ length,
    partial reads allowed, POSIX-style), [Eof] at end of stream.

    [timeout_ns] arms a deadline on the node's {!Engine.Clock}: if the
    request has not completed that long after posting, it completes with
    [Error "timeout"] (and a [vl.timeout] trace event). Raises
    [Invalid_argument] when non-positive. *)

val post_write :
  ?timeout_ns:int -> ?nonblock:bool -> t -> Engine.Bytebuf.t -> req
(** Post a write of the whole buffer; completes when fully accepted by the
    driver. [timeout_ns] as for {!post_read}.

    With [~nonblock:true] (default [false]) the request is {e never
    queued}: the driver gets one shot, and the returned request is already
    complete — [Done n] for the [n] bytes accepted (possibly fewer than
    posted), or [Again] when the driver is full or the link still
    connecting. This is the EAGAIN building block for flow-control-aware
    senders: combine with {!on_writable} to retry without buffering. *)

val on_writable : t -> (unit -> unit) -> unit
(** One-shot readiness hook: run [f] once the driver reports write space
    {e and} no earlier queued write is waiting for it — immediately if that
    already holds. Also fired (spuriously) on close/failure/peer-close so a
    parked writer re-polls and observes the terminal state instead of
    hanging: treat a callback as "re-try", not "guaranteed space". *)

val poll : req -> completion option
(** Non-blocking completion test. *)

val set_handler : req -> (completion -> unit) -> unit
(** Completion handler; called immediately if already complete. *)

val await : req -> completion
(** Blocking wait (process context) — convenience for personalities. *)

val close : t -> unit
val is_connected : t -> bool
val is_closed : t -> bool

val on_event : t -> (event -> unit) -> unit
(** Observe lifecycle events (e.g. [Connected], [Peer_closed]). Handlers
    stack; all registered handlers run. *)

val await_connected : t -> (unit, string) result
(** Blocking wait for [Connected] / [Failed] (process context). *)

val node : t -> Simnet.Node.t
val driver_name : t -> string
(** "(connecting)" until ops are attached. *)

val readable_bytes : t -> int
val write_space : t -> int

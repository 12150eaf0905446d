(** NetAccess MadIO: multiplexed access to parallel-oriented hardware.

    Madeleine exposes no more channels than the hardware allows (2 on
    Myrinet, 1 on SCI). MadIO adds a logical multiplexing facility allowing
    an {e arbitrary} number of communication channels on top of one hardware
    channel. Multiplexing needs a per-message header; MadIO {e combines}
    headers — the 16-byte multiplexing header travels inside the first
    packet of the message it describes (via Madeleine's incremental packing)
    — so that multiplexing costs < 0.1 µs instead of a second message
    (ablation: {!set_header_combining}). *)

type t

type lchannel
(** A logical channel. Any number may be open. *)

val init : Madeleine.Mad.t -> t
(** Take over the node's Madeleine instance (claims hardware channel 0).
    Idempotent per Madeleine instance. *)

val node : t -> Simnet.Node.t
val mad : t -> Madeleine.Mad.t

val open_lchannel : t -> id:int -> lchannel
(** Open logical channel [id] (0 ≤ id < 65536). Raises when already open. *)

val close_lchannel : lchannel -> unit
val lchannel_id : lchannel -> int
val lchannels_open : t -> int

val sendv : lchannel -> dst:int -> Engine.Bytebuf.t list -> unit
(** Send a logical message as a gathered iovec (no copies added). *)

val send : lchannel -> dst:int -> Engine.Bytebuf.t -> unit

val set_recv : lchannel -> (src:int -> Engine.Bytebuf.t -> unit) -> unit
(** Delivery happens through the NetAccess dispatcher (arbitrated). The
    callback must not block. Messages that arrived on the open channel
    before a receiver was installed are buffered and flushed, in order,
    when [set_recv] runs — a peer's first message can legally overtake the
    local registration. *)

val set_header_combining : t -> bool -> unit
(** Default [true]. [false] sends the multiplexing header as its own
    Madeleine message — the ablation measured by experiment E3. Pending
    coalescing batches are sent first; no message coalesces while
    combining is off. *)

val header_combining : t -> bool

(** {2 Small-message coalescing}

    A flow is one (peer, logical channel) pair. A message strictly smaller
    than [Calib.madio_agg_threshold_bytes] goes out at once when its flow
    has no packet in flight — posted to Madeleine but not yet
    send-completed ([Mad.end_packing ~on_tx]) — so a lone message pays no
    coalescing delay. Otherwise it joins the flow's batch, which leaves as
    one Madeleine packet when an in-flight packet of the flow completes,
    or earlier: when it would exceed [Calib.madio_agg_max_batch_bytes] of
    payload+sublength bytes or 255 messages, when an over-threshold
    message on the flow must keep its place in the stream, on a
    credit-only grant (the grant rides the batch), when the channel
    closes, and when header combining is switched off. MadIO arms no
    timers.

    The combined header's count byte announces a batch; its payload is a
    sequence of [u16 sublen | bytes] records, demultiplexed on the receive
    side as zero-copy sub-slices in order. A batch of one goes out in the
    plain single-message format. Ordering within a logical channel is
    preserved. *)

val messages_batched : t -> int
(** Messages sent inside packets that carry >= 2 messages. *)

val batches_sent : t -> int
(** Packets that carried >= 2 messages. *)

val packets_saved : t -> int
(** Madeleine packets avoided by coalescing: sum over batches of
    (messages - 1), i.e. [messages_batched - batches_sent]. *)

(** {2 Credit-based flow control}

    Per-(peer, logical channel) byte credits, MPICH-G2 style. Disabled by
    default ([window = 0]): the pre-flow-control semantics are unchanged.
    When enabled (symmetrically on both peers, before traffic starts) a
    sender starts with [window] bytes of credit per flow; each [sendv]
    consumes payload-length credit, and the receiver grants credit back as
    the message is {e drained} — automatically when the dispatcher has run
    the recv callback, or explicitly via {!grant} on manual-grant channels
    where the real consumer sits above (vl_madio grants as the application
    reads). Grants piggyback on the combined header (zero extra messages
    under bidirectional traffic); one-way flows fall back to an explicit
    credit-only message at half-window.

    Enforcement is {e soft}: [sendv] itself never blocks or refuses — a
    stack that must emit control traffic always can, at worst driving the
    balance negative (counted in {!credit_stalls}). Polite bulk senders
    check {!send_space} and park on {!on_credit}. *)

val set_credit_window : t -> int -> unit
(** Set the per-flow credit window in bytes; [0] disables. Resets all
    credit balances — call before traffic flows. *)

val credit_window : t -> int

val send_space : lchannel -> dst:int -> int
(** Payload bytes sendable to [dst] right now without over-running the
    receiver; [max_int] when flow control is disabled. Never negative. *)

val on_credit : lchannel -> dst:int -> ?min_space:int -> (unit -> unit) -> unit
(** One-shot: run [f] as soon as [send_space lc ~dst >= min_space]
    (default 1) — immediately if it already is. Senders whose messages
    carry a fixed header should pass [~min_space:(header + 1)]: waking on
    any nonzero balance would spin them without ever fitting a payload
    byte. *)

val set_manual_grant : lchannel -> bool -> unit
(** [true]: the automatic grant-on-dispatch is suppressed; the channel
    owner must call {!grant} as the payload is actually consumed. *)

val grant : lchannel -> src:int -> int -> unit
(** Return [n] bytes of credit to the sender [src] (manual-grant mode). *)

val credit_stalls : t -> int
(** Sends that over-ran the available credit (soft-enforcement debt). *)

val credit_messages : t -> int
(** Explicit credit-only messages sent (piggybacking misses). *)

val messages_sent : t -> int
val messages_received : t -> int

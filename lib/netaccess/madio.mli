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
    aggregation batches are flushed first. *)

val header_combining : t -> bool

(** {2 Small-message aggregation}

    A per-(peer, logical channel) coalescing queue: messages strictly
    smaller than the threshold are packed into one Madeleine packet
    instead of paying the fixed per-packet costs each. The combined
    header's count byte announces a batch; its payload is a sequence of
    [u16 sublen | bytes] records, demultiplexed on the receive side as
    zero-copy sub-slices in order. A batch flushes when its latency
    budget expires (engine timer), when an over-threshold message on the
    same flow must keep its place in the stream, when the batch would
    exceed the byte cap or 255 messages, on {!flush}/{!flush_all}, when
    the channel closes, and on credit-only grants (the grant rides the
    flush). Ordering within a logical channel is preserved; a batch of
    one goes out in the legacy wire format. Disabled by default — the
    wire format is then byte-identical to pre-aggregation builds. *)

val set_aggregation : t -> ?budget_ns:int -> bool -> unit
(** Enable/disable coalescing. Messages strictly smaller than
    [Calib.madio_agg_threshold_bytes] coalesce, up to
    [Calib.madio_agg_max_batch_bytes] of payload+sublength bytes per
    packet. [budget_ns] (default [Calib.madio_agg_budget_ns], [>= 0]):
    max virtual-time queueing delay. The budget timer is an
    exact engine-heap timer: budgets of a few µs sit well below the
    ~66 µs slot of the shared timewheel. Disabling flushes everything
    pending. *)

val aggregation_enabled : t -> bool

val flush : lchannel -> dst:int -> unit
(** Flush the pending batch of this (channel, peer) flow, if any. *)

val flush_all : t -> unit

val messages_batched : t -> int
(** Messages that went through a coalescing batch. *)

val batches_sent : t -> int
(** Batch flushes (wire packets that carried batched messages). *)

val packets_saved : t -> int
(** Madeleine packets avoided by aggregation: sum over batches of
    (messages - 1). *)

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

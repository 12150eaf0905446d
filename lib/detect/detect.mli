(** Phi-accrual heartbeat failure detector, clock-polymorphic.

    The distributed world's first tool: each instance watches a set of
    numbered peers and accrues {e suspicion} about any it has not heard
    from. Suspicion is the phi of Hayashibara et al. — roughly, how many
    mean inter-arrival intervals of silence have elapsed, on a log scale —
    so thresholds express false-positive tolerance instead of raw
    timeouts. Crossing [suspect_phi] marks a peer [Suspect] (refutable:
    hearing from it again returns it to [Alive]); crossing [confirm_phi]
    marks it [Confirmed] dead, which is sticky — this detector implements
    the crash-stop model that the self-healing collectives
    ({!Collectives.Group}) build their eviction agreement on.

    Two design points tie it to the rest of the stack:

    - {b Clock polymorphism.} The detector schedules its periodic sweep
      through the owning node's {!Engine.Clock.t}, so the same code runs
      on the deterministic virtual clock (simulation, schedule
      exploration) and on Hostio's monotonic clock (real sockets, real
      time).
    - {b Piggybacked heartbeats.} Any application traffic counts:
      callers report every message received from a peer with {!heard} and
      every message sent to one with {!sent}. The sweep emits an explicit
      heartbeat (via the [send_hb] callback) only to monitored peers the
      caller has not written to for a full interval — an active group
      sends no extra frames.

    The detector never sends anything itself; it only calls back. A
    transport that {e knows} a peer is gone (TCP reset on a real socket)
    can short-circuit accrual with {!link_dead}. *)

type config = {
  interval_ns : int;
      (** Heartbeat period: the sweep cadence, and the silence unit
          suspicion is measured against. *)
  window : int;
      (** Inter-arrival samples retained per peer. Doubles as the
          bootstrap grace: a peer never heard from is modelled with a
          mean of [window] intervals, so link establishment (a TCP
          handshake across a slow WAN) cannot produce a false
          confirmation before the first frame lands. *)
  suspect_phi : float;
      (** Accrued suspicion at which a peer turns [Suspect]
          (default 1.0, ~2.3 mean intervals of silence). *)
  confirm_phi : float;
      (** Suspicion at which a peer is [Confirmed] dead
          (default 2.0, ~4.6 mean intervals). *)
  wan_floor : int;
      (** Minimum modelled mean, in intervals, for peers flagged
          wide-area in {!set_peers}. Heartbeats ride an in-order stream,
          so a single lost segment on a lossy WAN silences the peer for a
          fast-retransmit round trip; pipelined heartbeats arrive at
          sub-interval spacing and would otherwise confirm long before
          the retransmission lands. *)
}

val default_config : config
(** 1 ms interval, window 8, suspect at phi 1.0, confirm at phi 2.0,
    wide-area floor 4 intervals, heap timers. *)

type verdict = Alive | Suspect | Confirmed

type t

val create : ?config:config -> name:string -> Simnet.Node.t -> t
(** A detector owned by [node], sweeping on the node's clock. [name]
    scopes its metrics ([detect.<name>.*] gauges on the node). *)

val config : t -> config

val set_peers : t -> ?wan:int list -> int list -> unit
(** Replace the monitored set. Retained peers keep their state and
    samples; new peers start [Alive] with a fresh grace period; removed
    peers are forgotten. Peers also listed in [wan] are modelled with the
    [wan_floor] mean (loss-tolerant thresholds for high-latency links).
    Call again after each membership change. *)

val peers : t -> int list
(** Currently monitored peers, ascending. *)

(** {2 Traffic reports (piggybacking)} *)

val heard : t -> peer:int -> unit
(** Any message arrived from [peer]: record the inter-arrival sample and
    refute an active suspicion. Unknown or confirmed peers: no-op. *)

val sent : t -> peer:int -> unit
(** Any message was sent to [peer]: suppresses the next explicit
    heartbeat to it. *)

val link_dead : t -> peer:int -> unit
(** The transport reported [peer]'s connection dead (real-socket reset).
    Confirms immediately, skipping accrual. No-op when stopped, or on
    unknown/already-confirmed peers. *)

(** {2 Reading suspicion} *)

val verdict : t -> peer:int -> verdict
(** [Alive] for unknown peers. *)

val phi : t -> peer:int -> float
(** Current accrued suspicion (0 for unknown or just-heard peers). *)

val max_phi : t -> float
(** Highest phi over non-confirmed monitored peers — the suspicion gauge. *)

(** {2 Lifecycle} *)

val start :
  t ->
  send_hb:(int -> unit) ->
  ?on_suspect:(int -> unit) ->
  ?on_refute:(int -> unit) ->
  on_confirm:(int -> unit) ->
  unit ->
  unit
(** Begin sweeping every [interval_ns]. [send_hb peer] must transmit an
    explicit heartbeat frame; [on_confirm peer] fires exactly once per
    peer, when it is declared dead. Callbacks may reenter the detector
    ([set_peers], {!stop}). A sweep on a crashed node ({!Simnet.Node.is_up}
    false) halts the detector permanently — a dead member must not keep
    sweeping, and on the virtual clock its timers must not keep the
    simulation alive. *)

val stop : t -> unit
(** Cancel the sweep and ignore subsequent traffic reports and
    [link_dead]. Idempotent. Groups call this as [Group.retire] so
    simulations quiesce. *)

val running : t -> bool

type stats = {
  hb_sent : int;  (** Explicit heartbeat frames requested. *)
  suspects : int;  (** Alive -> Suspect transitions. *)
  refutes : int;  (** Suspect -> Alive transitions. *)
  confirms : int;  (** Peers declared dead (incl. link-dead). *)
  monitored : int;  (** Current peer count. *)
}

val stats : t -> stats

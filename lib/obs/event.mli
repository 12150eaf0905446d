(** Typed trace-event taxonomy covering the layers of the stack.

    Arbitration events come from the NetAccess core (the single per-node
    dispatcher, whose fixed-quanta rounds emit dispatch and poll events)
    and its two subsystems; abstraction events from the VLink /
    Circuit APIs and the method adapters stacked on them; selection events
    from the strategy selector; resilience events from the fault injector
    (Padico_fault) and the failover machinery built on it. The taxonomy is
    closed on purpose: every event an exporter can meet is listed here, so
    exporters never need a fallback case and traces stay comparable across
    runs. *)

type layer = Arbitration | Abstraction | Selection | Resilience

type vl_op = Read | Write

type adapter_dir = Wrap | Unwrap

type t =
  (* -- arbitration (NetAccess) -- *)
  | Dispatch of { kind : string; queued_ns : int }
      (** One work item left the [kind] ("madio" | "sysio") queue after
          waiting [queued_ns] of virtual time. Rendered as a span covering
          the queueing interval. *)
  | Poll of { kind : string }
      (** A charged polling pass over a subsystem: a round that found
          SysIO work posted or a live readiness source pending. *)
  | Header of { lchannel : int; bytes : int; combined : bool }
      (** MadIO multiplexing header emission: combined with the payload
          message, or sent as a separate message (the ablation). *)
  | Madio_recv of { lchannel : int; bytes : int }
      (** A MadIO message reassembled and handed to a logical channel. *)
  | Sysio_event of { event : string }
      (** A socket event routed through the arbitrated receipt loop. *)
  (* -- abstraction (VLink / Circuit) -- *)
  | Vl_connect of { driver : string }  (** Descriptor bound to a driver. *)
  | Vl_post of { op : vl_op; bytes : int }  (** Read/write request posted. *)
  | Vl_complete of { op : vl_op; result : string; bytes : int }
      (** Request completion ("done" | "eof" | "error"). *)
  | Ct_pack of { circuit : string; dst : int; bytes : int }
      (** Circuit message packed and sent towards rank [dst]. *)
  | Ct_recv of { circuit : string; src : int; bytes : int }
      (** Circuit message delivered from rank [src]. *)
  | Adapter of { adapter : string; dir : adapter_dir; bytes : int }
      (** A method adapter (adoc / crypto / vrp / pstream) transformed
          [bytes] of payload on the way down ([Wrap]) or up ([Unwrap]). *)
  | Flow of { action : string; place : string; bytes : int }
      (** Flow-control transition at [place] (a queue, channel or link
          name): [action] is "pause" | "resume" | "credit.stall" |
          "credit.grant" | "defer" | "shed" | "window.full"; [bytes] the
          queue depth or credit amount involved. *)
  (* -- selection -- *)
  | Choice of {
      src : string;
      dst : string;
      driver : string;
      rule : string;
      streams : int;
      adoc : bool;
      crypto : bool;
    }
      (** The selector picked [driver] for the [src]->[dst] link because
          [rule] fired ("loopback" | "forced" | "san" | "vrp-lossy" |
          "pstream-wan" | "default"). *)
  (* -- resilience (fault injection / recovery) -- *)
  | Fault of { action : string; target : string }
      (** The injector fired a plan event ([action] is
          [Plan.action_name], [target] the link/node/group). *)
  | Vl_timeout of { op : vl_op; after_ns : int }
      (** A posted VLink request hit its deadline and completed with
          [Error "timeout"]. *)
  | Retry of { attempt : int; delay_ns : int; target : string }
      (** A reconnect attempt was scheduled after a backoff delay. *)
  | Failover of {
      from_ : string;
      to_ : string;
      retries : int;
      downtime_ns : int;
    }
      (** A resilient link re-established on a different adapter stack:
          the switch, the retry count and the measured downtime. *)
  | Agg of { action : string; lchannel : int; msgs : int; bytes : int }
      (** MadIO small-message coalescing, recorded only for messages that
          share a packet: [action] is "queue" (a message joined a flow's
          non-empty batch) or "flush.<reason>" (a batch of >= 2 messages
          left) with reason "cork" (an in-flight packet of the flow
          completed) | "size" | "large" | "credit" | "close" |
          "combining" (header combining switched off); [msgs]/[bytes] the
          batch contents. *)
  | Coll_stage of {
      group : string;
      op : string;
      stage : string;
      level : string;
      bytes : int;
    }
      (** One per-member stage of a collective operation on [group]:
          [op] is the operation ("barrier" | "bcast" | ...), [stage] is
          "up" (towards the root) or "down" (away from it), [level] the
          topology level the member's sends travel at ("san" | "lan" |
          "wan", or "flat" for the topology-blind strategy); [bytes] the
          payload carried. Rendered as a span covering the stage. *)
  | Coll_wan of { group : string; op : string; dst : int; bytes : int }
      (** A collective message crossed a WAN boundary (source and
          destination ranks live in different Netdb clusters). *)
  | Detect of { action : string; peer : int; phi_milli : int }
      (** Failure-detector transition about [peer]: [action] is "suspect"
          (phi crossed the suspicion threshold), "refute" (a suspected peer
          was heard from again), "confirm" (phi crossed the confirmation
          threshold — the peer is declared dead) or "link-dead" (the
          transport reported the peer's connection reset, confirming it
          immediately). [phi_milli] is the accrued suspicion level x1000 at
          the transition (-1 when confirmed by transport death). *)
  | Member of { group : string; action : string; rank : int; epoch : int }
      (** Self-healing group-membership transition on [group]: [action] is
          "evict" (rank confirmed dead and removed from the membership),
          "epoch" (the member moved to membership epoch [epoch]) or
          "restart" (the in-flight collective was rewound and retried over
          the shrunken membership). *)

val layer : t -> layer

val layer_name : layer -> string
(** "arbitration" | "abstraction" | "selection" | "resilience" — the Chrome
    trace [cat]. *)

val name : t -> string
(** Stable dotted event name, e.g. ["na.dispatch"], ["vl.post"]. *)

type arg = I of int | S of string | B of bool

val args : t -> (string * arg) list
(** Structured payload of the event, in a fixed order. *)

val pp : Format.formatter -> t -> unit

(** Circuit: the parallel-oriented abstract interface.

    A Circuit manages communications on a definite set of nodes called a
    {e group} — an arbitrary set: a cluster, a subset, or nodes spanning
    several clusters or sites. Every node can talk to every other node
    through an interface optimized for parallel runtimes: incremental
    packing with explicit semantics, as in Madeleine. Each {e link} (pair
    of ranks) is bound to an adapter — straight ({!Ct_madio} on SAN,
    {!Ct_loopback} intra-node) or cross-paradigm ({!Ct_sysio} over TCP,
    {!Ct_vlink} over any VLink, e.g. parallel streams on a WAN); one
    instance can mix adapters across links. An adapter serves one (member,
    segment) {e binding}: every rank the member reaches over that network,
    told the destination per send ({!Ct_loopback} and {!Ct_vlink} are per
    pair by nature). A link costs its member one word. *)

type t
(** One member's view of a circuit (bound to its rank). *)

(** Transport provided by an adapter for one binding: shared by all the
    links ({!set_links}) a member reaches through it. *)
type adapter = {
  a_name : string;
  a_sendv : dst:int -> Engine.Bytebuf.t list -> unit;
      (** gathered send towards remote rank [dst] *)
}

(** Cursor over one received message. *)
type incoming

val create : group:Simnet.Node.t array -> rank:int -> name:string -> t
(** [group] must be identical (same order) on every member. *)

val name : t -> string
val rank : t -> int
val size : t -> int
val node : t -> Simnet.Node.t
(** The local node. *)

val node_of_rank : t -> int -> Simnet.Node.t

val set_links : t -> ranks:int list -> adapter -> unit
(** Bind the links towards every rank of [ranks] to one shared adapter. *)

val link_adapter_name : t -> dst:int -> string
(** Raises [Invalid_argument] — naming the circuit and the src/dst ranks —
    when the link is unbound. *)

(** {1 Sending: incremental packing} *)

type outgoing

val begin_packing : t -> dst:int -> outgoing
val pack : outgoing -> Engine.Bytebuf.t -> unit
val pack_int : outgoing -> int -> unit
(** Convenience: pack a 63-bit integer (8 bytes). *)

val end_packing : ?on_sent:(unit -> unit) -> outgoing -> unit
(** Messages packed before the destination link is bound are buffered and
    flushed when {!set_links} binds the link. [on_sent] fires once the
    message has been handed to the link adapter (after the circuit-op CPU
    charge, or at flush time for buffered messages) — a non-blocking local
    completion hook so callers can pipeline multi-stage exchanges such as
    collective tree rounds without suspending per send. *)

(** {1 Receiving} *)

val unpack : incoming -> int -> Engine.Bytebuf.t
val unpack_int : incoming -> int
val remaining : incoming -> int
val incoming_src : incoming -> int
(** Source rank. *)

val set_recv : t -> (incoming -> unit) -> unit
(** Single message handler per instance (parallel runtimes do their own
    matching above). Messages delivered before the handler was installed
    are buffered and flushed, in order, when it appears. *)

val deliver : t -> src:int -> Engine.Bytebuf.t -> unit
(** Adapter-side: hand a complete received message to the circuit. *)

(** {1 Transport death} *)

val set_on_peer_down : t -> (int -> unit) -> unit
(** Install the (single) transport-death handler: called with the remote
    rank when a binding layer reports that rank's connection irrecoverably
    gone (TCP reset / peer close on a real socket). Failure detectors use
    this to confirm a death without waiting for suspicion to accrue. *)

val peer_down : t -> rank:int -> unit
(** Binding-layer side: report the link towards [rank] dead. No-op unless a
    handler is installed (default), so circuits without a detector are
    unaffected. Out-of-range ranks (unknown peer) are ignored. *)

val messages_sent : t -> int
val messages_received : t -> int

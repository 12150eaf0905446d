(* Owner-split port state: every mutable cell a send touches belongs to
   exactly one shard. Egress state, tx counters and the loss/jitter
   generator belong to the source port (its node's shard); ingress state
   and rx counters belong to the destination port. Each port draws from
   its own generator, a keyed non-advancing child of the segment stream,
   so no two shards ever share an Rng and a port's draw sequence does not
   depend on its peers' traffic. *)
type port = {
  node : Node.t;
  prng : Engine.Rng.t;
  mutable egress_busy_until : int;
  mutable ingress_busy_until : int;
  handlers : (int, Packet.t -> unit) Hashtbl.t;
  mutable tx_sent : int;
  mutable tx_bytes : int;
  mutable tx_lost : int;
  mutable tx_faulted : int;
  mutable rx_delivered : int;
  mutable rx_unclaimed : int;
}

let next_uid = ref 0

type t = {
  uid : int;
  name : string;
  model : Linkmodel.t;
  rng : Engine.Rng.t;
  cross : src:int -> dst:int -> ts:int -> (unit -> unit) -> unit;
  ports : (int, port) Hashtbl.t;
  (* Dynamic fault overlay (see Padico_fault.Inject): the static Linkmodel
     stays immutable; faults are transient deltas consulted per frame. *)
  mutable down : bool;
  mutable extra_loss : float;
  mutable extra_latency_ns : int;
  blocked : (int * int, unit) Hashtbl.t; (* partition: (lo, hi) node ids *)
  mutable link_watchers : (bool -> unit) list;
}

let log = Logs.Src.create "simnet.segment"

module Log = (val Logs.src_log log : Logs.LOG)

let create ~rng ~cross model ~name =
  incr next_uid;
  let model = Linkmodel.validate model in
  { uid = !next_uid; name; model; rng = Engine.Rng.split rng; cross;
    ports = Hashtbl.create 16;
    down = false; extra_loss = 0.0; extra_latency_ns = 0;
    blocked = Hashtbl.create 4; link_watchers = [] }

let uid t = t.uid
let name t = t.name
let model t = t.model

let attach t node =
  if not (Hashtbl.mem t.ports (Node.id node)) then
    Hashtbl.replace t.ports (Node.id node)
      { node; prng = Engine.Rng.stream t.rng (Node.id node);
        egress_busy_until = 0; ingress_busy_until = 0;
        handlers = Hashtbl.create 4;
        tx_sent = 0; tx_bytes = 0; tx_lost = 0; tx_faulted = 0;
        rx_delivered = 0; rx_unclaimed = 0 }

let attached t node = Hashtbl.mem t.ports (Node.id node)

let nodes t = Hashtbl.fold (fun _ p acc -> p.node :: acc) t.ports []

let port_exn t id what =
  match Hashtbl.find_opt t.ports id with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Segment %s: node %d not attached (%s)" t.name id what)

let set_handler t node ~proto f =
  let p = port_exn t (Node.id node) "set_handler" in
  Hashtbl.replace p.handlers proto f

let clear_handler t node ~proto =
  let p = port_exn t (Node.id node) "clear_handler" in
  Hashtbl.remove p.handlers proto

(* Runs on the destination port's shard, so its counters are owner-local. *)
let deliver t (dst : port) (pkt : Packet.t) =
  match Hashtbl.find_opt dst.handlers pkt.proto with
  | Some f ->
    dst.rx_delivered <- dst.rx_delivered + 1;
    f pkt
  | None ->
    dst.rx_unclaimed <- dst.rx_unclaimed + 1;
    Log.debug (fun m ->
        m "%s: no handler for %a at %a" t.name Packet.pp pkt Node.pp dst.node)

(* ---------- dynamic fault overlay ---------- *)

let is_down t = t.down

let set_down t down =
  if t.down <> down then begin
    t.down <- down;
    List.iter (fun f -> f (not down)) (List.rev t.link_watchers)
  end

let on_link_state t f = t.link_watchers <- f :: t.link_watchers

let set_extra_loss t p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg
      (Printf.sprintf "Segment %s: extra loss %g not in [0, 1]" t.name p);
  t.extra_loss <- p

let extra_loss t = t.extra_loss

let set_extra_latency t ns =
  if ns < 0 then
    invalid_arg
      (Printf.sprintf "Segment %s: extra latency %d is negative" t.name ns);
  t.extra_latency_ns <- ns

let extra_latency_ns t = t.extra_latency_ns

let pair_key a b = if a <= b then (a, b) else (b, a)

let block_pair t a b = Hashtbl.replace t.blocked (pair_key a b) ()

let unblock_pair t a b = Hashtbl.remove t.blocked (pair_key a b)

let clear_blocked t = Hashtbl.reset t.blocked

let pair_blocked t a b = Hashtbl.mem t.blocked (pair_key a b)

(* Ingress contention: the receiving port absorbs at most one frame per
   serialization slot; concurrent senders queue behind each other.
   Returns the delivery time. *)
let ingress (dst : port) ~arrival ~ser =
  let rx_start =
    if dst.ingress_busy_until > arrival then dst.ingress_busy_until
    else arrival
  in
  dst.ingress_busy_until <- rx_start + ser;
  rx_start

let send t (pkt : Packet.t) =
  let src = port_exn t pkt.src "send source" in
  let dst = port_exn t pkt.dst "send destination" in
  if pkt.size > t.model.Linkmodel.mtu then
    invalid_arg
      (Printf.sprintf "Segment %s: frame of %d bytes exceeds MTU %d" t.name
         pkt.size t.model.Linkmodel.mtu);
  src.tx_sent <- src.tx_sent + 1;
  src.tx_bytes <- src.tx_bytes + pkt.size;
  if t.down || pair_blocked t pkt.src pkt.dst
     || not (Node.is_up src.node) || not (Node.is_up dst.node)
  then begin
    (* Fault overlay: the frame never reaches the wire. No egress time is
       charged (the NIC rejects immediately) and no randomness is consumed,
       so a healed link resumes with an unperturbed loss/jitter stream. *)
    src.tx_faulted <- src.tx_faulted + 1;
    Log.debug (fun m -> m "%s: fault-dropped %a" t.name Packet.pp pkt)
  end
  else begin
    (* Virtual time is the source node's: its shard runs this send. *)
    let sim = Node.sim src.node in
    let now = Engine.Sim.now sim in
    (* Back-to-back frames pay the port turnaround gap; an isolated frame
       on an idle port does not (see Linkmodel.turnaround_ns). *)
    let busy = src.egress_busy_until > now in
    let ser =
      Linkmodel.serialization_ns t.model pkt.size
      + (if busy then t.model.Linkmodel.turnaround_ns else 0)
    in
    let start = if busy then src.egress_busy_until else now in
    src.egress_busy_until <- start + ser;
    let loss = Float.min 1.0 (t.model.Linkmodel.loss +. t.extra_loss) in
    if Engine.Rng.bool src.prng loss then begin
      src.tx_lost <- src.tx_lost + 1;
      Log.debug (fun m -> m "%s: lost %a" t.name Packet.pp pkt)
    end
    else begin
      let jitter =
        if t.model.Linkmodel.jitter_ns = 0 then 0
        else Engine.Rng.int src.prng (t.model.Linkmodel.jitter_ns + 1)
      in
      let arrival =
        start + ser + t.model.Linkmodel.latency_ns + t.extra_latency_ns
        + jitter
      in
      let dst_sim = Node.sim dst.node in
      if dst_sim == sim then begin
        let rx_start = ingress dst ~arrival ~ser in
        Engine.Sim.at sim rx_start (fun () -> deliver t dst pkt)
      end
      else
        (* Another shard owns the receiving port: the frame crosses at its
           arrival time, which is >= now + latency — the floor the
           conservative runtime's lookahead is built from — and ingress
           contention is resolved over there. *)
        t.cross ~src:pkt.src ~dst:pkt.dst ~ts:arrival (fun () ->
            let rx_start = ingress dst ~arrival ~ser in
            if rx_start = arrival then deliver t dst pkt
            else
              Engine.Sim.at dst_sim rx_start (fun () -> deliver t dst pkt))
    end
  end

(* Totals sum the per-port cells. Read after the run for exact values. *)
let sum t f = Hashtbl.fold (fun _ p acc -> acc + f p) t.ports 0

let frames_sent t = sum t (fun p -> p.tx_sent)
let frames_faulted t = sum t (fun p -> p.tx_faulted)
let frames_lost t = sum t (fun p -> p.tx_lost)
let frames_delivered t = sum t (fun p -> p.rx_delivered)
let frames_unclaimed t = sum t (fun p -> p.rx_unclaimed)
let bytes_sent t = sum t (fun p -> p.tx_bytes)

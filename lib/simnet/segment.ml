(* Owner-split port state: every mutable cell a send touches belongs to
   exactly one shard. Egress state, tx counters, the loss/jitter
   generator and the fault overlay belong to the source port (its node's
   shard); ingress state and rx counters belong to the destination port.
   Each port draws from its own generator, a keyed non-advancing child of
   the segment stream, so no two shards ever share an Rng and a port's
   draw sequence does not depend on its peers' traffic. *)
type port = {
  node : Node.t;
  prng : Engine.Rng.t;
  mutable egress_busy_until : int;
  mutable arrival_floor : int;
  mutable ingress_busy_until : int;
  mutable handlers : (int * (Packet.t -> unit)) list; (* by proto *)
  mutable tx_sent : int;
  mutable tx_bytes : int;
  mutable tx_lost : int;
  mutable tx_faulted : int;
  mutable rx_faulted : int;
  mutable rx_delivered : int;
  mutable rx_unclaimed : int;
  (* Fault overlay (see Padico_fault.Inject): transient deltas over the
     immutable Linkmodel, read by this port's sends. *)
  mutable down : bool;
  mutable extra_loss : float;
  mutable extra_latency_ns : int;
  mutable blocked : int list; (* peer node ids (partition) *)
  mutable watchers : (bool -> unit) list;
}

let next_uid = ref 0

type t = {
  uid : int;
  name : string;
  model : Linkmodel.t;
  rng : Engine.Rng.t;
  cross : src:int -> dst:int -> ts:int -> (unit -> unit) -> unit;
  (* Ports by node id. [Net] numbers nodes densely and a segment's nodes
     mostly form one id range, so the array spans ids
     [ports_lo, ports_lo + length ports). *)
  mutable ports_lo : int;
  mutable ports : port option array;
}

let log = Logs.Src.create "simnet.segment"

module Log = (val Logs.src_log log : Logs.LOG)

let create ~rng ~cross model ~name =
  incr next_uid;
  let model = Linkmodel.validate model in
  { uid = !next_uid; name; model; rng = Engine.Rng.split rng; cross;
    ports_lo = 0; ports = [||] }

let uid t = t.uid
let name t = t.name
let model t = t.model

let port_opt t id =
  let i = id - t.ports_lo in
  if i >= 0 && i < Array.length t.ports then t.ports.(i) else None

(* Widen the port array to cover [id]: upwards by doubling, downwards to
   exactly [id]. *)
let cover t id =
  let n = Array.length t.ports in
  if n = 0 then begin
    t.ports_lo <- id;
    t.ports <- [| None |]
  end
  else if id < t.ports_lo || id >= t.ports_lo + n then begin
    let lo = min t.ports_lo id in
    let hi =
      if id < t.ports_lo then t.ports_lo + n
      else max (id + 1) (t.ports_lo + (2 * n))
    in
    let a = Array.make (hi - lo) None in
    Array.blit t.ports 0 a (t.ports_lo - lo) n;
    t.ports_lo <- lo;
    t.ports <- a
  end

let attach t node =
  let id = Node.id node in
  if Option.is_none (port_opt t id) then begin
    cover t id;
    t.ports.(id - t.ports_lo) <-
      Some
        { node; prng = Engine.Rng.stream t.rng id;
          egress_busy_until = 0; arrival_floor = 0; ingress_busy_until = 0;
          handlers = [];
          tx_sent = 0; tx_bytes = 0; tx_lost = 0; tx_faulted = 0;
          rx_faulted = 0; rx_delivered = 0; rx_unclaimed = 0;
          down = false; extra_loss = 0.0; extra_latency_ns = 0;
          blocked = []; watchers = [] }
  end

let attached t node = Option.is_some (port_opt t (Node.id node))

let fold_ports t f init =
  Array.fold_left
    (fun acc p -> match p with Some p -> f p acc | None -> acc)
    init t.ports

let nodes t = fold_ports t (fun p acc -> p.node :: acc) []

let port_exn t id what =
  match port_opt t id with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Segment %s: node %d not attached (%s)" t.name id what)

let set_handler t node ~proto f =
  let p = port_exn t (Node.id node) "set_handler" in
  p.handlers <- (proto, f) :: List.remove_assoc proto p.handlers

let clear_handler t node ~proto =
  let p = port_exn t (Node.id node) "clear_handler" in
  p.handlers <- List.remove_assoc proto p.handlers

let rec dispatch t (dst : port) (pkt : Packet.t) = function
  | (proto, f) :: _ when proto = pkt.proto ->
    dst.rx_delivered <- dst.rx_delivered + 1;
    f pkt
  | _ :: rest -> dispatch t dst pkt rest
  | [] ->
    dst.rx_unclaimed <- dst.rx_unclaimed + 1;
    Log.debug (fun m ->
        m "%s: no handler for %a at %a" t.name Packet.pp pkt Node.pp dst.node)

(* Runs on the destination port's shard, so its counters — and the
   receiver's up/down state it reads — are owner-local. A crashed node
   receives nothing, whenever the frame was sent. *)
let deliver t (dst : port) (pkt : Packet.t) =
  if not (Node.is_up dst.node) then begin
    dst.rx_faulted <- dst.rx_faulted + 1;
    Log.debug (fun m -> m "%s: fault-dropped %a" t.name Packet.pp pkt)
  end
  else dispatch t dst pkt dst.handlers

(* ---------- dynamic fault overlay ---------- *)

(* The selected ports ([?ports], default every port) of a setter. *)
let each_port ?ports t f =
  match ports with
  | None -> Array.iter (Option.iter f) t.ports
  | Some nodes ->
    List.iter (fun n -> f (port_exn t (Node.id n) "fault overlay")) nodes

let is_down t node = (port_exn t (Node.id node) "is_down").down

let set_down ?ports t down =
  each_port ?ports t (fun p ->
      if p.down <> down then begin
        p.down <- down;
        List.iter (fun f -> f (not down)) (List.rev p.watchers)
      end)

let on_link_state t node f =
  let p = port_exn t (Node.id node) "on_link_state" in
  p.watchers <- f :: p.watchers

let set_extra_loss ?ports t loss =
  if not (loss >= 0.0 && loss <= 1.0) then
    invalid_arg
      (Printf.sprintf "Segment %s: extra loss %g not in [0, 1]" t.name loss);
  each_port ?ports t (fun p -> p.extra_loss <- loss)

let set_extra_latency ?ports t ns =
  if ns < 0 then
    invalid_arg
      (Printf.sprintf "Segment %s: extra latency %d is negative" t.name ns);
  each_port ?ports t (fun p -> p.extra_latency_ns <- ns)

let block t node ~peer =
  let p = port_exn t (Node.id node) "block" in
  p.blocked <- peer :: p.blocked

let clear_blocked ?ports t = each_port ?ports t (fun p -> p.blocked <- [])

(* Ingress contention, resolved on the receiver's shard when the frame
   arrives: the receiving port absorbs at most one frame per
   serialization slot, so frames queue behind each other in arrival
   order. *)
let arrive t (dst : port) pkt ~arrival ~ser () =
  let rx_start =
    if dst.ingress_busy_until > arrival then dst.ingress_busy_until
    else arrival
  in
  dst.ingress_busy_until <- rx_start + ser;
  if rx_start = arrival then deliver t dst pkt
  else
    Engine.Sim.at (Node.sim dst.node) rx_start (fun () -> deliver t dst pkt)

let send t (pkt : Packet.t) =
  let src = port_exn t pkt.src "send source" in
  let dst = port_exn t pkt.dst "send destination" in
  if pkt.size > t.model.Linkmodel.mtu then
    invalid_arg
      (Printf.sprintf "Segment %s: frame of %d bytes exceeds MTU %d" t.name
         pkt.size t.model.Linkmodel.mtu);
  src.tx_sent <- src.tx_sent + 1;
  src.tx_bytes <- src.tx_bytes + pkt.size;
  if src.down
     || List.mem pkt.dst src.blocked
     || not (Node.is_up src.node)
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
    let loss = Float.min 1.0 (t.model.Linkmodel.loss +. src.extra_loss) in
    if Engine.Rng.bool src.prng loss then begin
      src.tx_lost <- src.tx_lost + 1;
      Log.debug (fun m -> m "%s: lost %a" t.name Packet.pp pkt)
    end
    else begin
      let jitter =
        if t.model.Linkmodel.jitter_ns = 0 then 0
        else Engine.Rng.int src.prng (t.model.Linkmodel.jitter_ns + 1)
      in
      (* Jitter delays, it never reorders: a port's frames arrive in the
         order they left, each after its predecessor's ingress slot. *)
      let arrival =
        max src.arrival_floor
          (start + ser + t.model.Linkmodel.latency_ns + src.extra_latency_ns
           + jitter)
      in
      src.arrival_floor <- arrival + ser;
      (* The frame lands at its arrival time on the shard that owns the
         receiving port. When that is another shard it crosses there;
         arrival >= now + latency, the floor the conservative runtime's
         lookahead is built from. *)
      let arrive = arrive t dst pkt ~arrival ~ser in
      if Node.sim dst.node == sim then Engine.Sim.at sim arrival arrive
      else t.cross ~src:pkt.src ~dst:pkt.dst ~ts:arrival arrive
    end
  end

(* Totals sum the per-port cells. Read after the run for exact values. *)
let sum t f = fold_ports t (fun p acc -> acc + f p) 0

let frames_sent t = sum t (fun p -> p.tx_sent)
let frames_faulted t = sum t (fun p -> p.tx_faulted + p.rx_faulted)
let frames_lost t = sum t (fun p -> p.tx_lost)
let frames_delivered t = sum t (fun p -> p.rx_delivered)
let frames_unclaimed t = sum t (fun p -> p.rx_unclaimed)
let bytes_sent t = sum t (fun p -> p.tx_bytes)

module Bytebuf = Engine.Bytebuf
module Stats = Engine.Stats
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics

type adapter = { a_name : string; a_sendv : dst:int -> Bytebuf.t list -> unit }

(* Placeholder for links no adapter is bound to yet, compared by identity:
   a bare adapter array costs one word per link. *)
let unbound_link = { a_name = ""; a_sendv = (fun ~dst:_ _ -> ()) }

type incoming = { payload : Bytebuf.t; src : int; mutable pos : int }

type t = {
  cname : string;
  crank : int;
  group : Simnet.Node.t array;
  links : adapter array; (* [unbound_link] until bound *)
  (* Messages packed before the link adapter is bound (e.g. while a WAN
     VLink bundle is still connecting) wait here, each with its optional
     completion hook. *)
  unbound : (int, (Bytebuf.t list * (unit -> unit) option) Queue.t) Hashtbl.t;
  (* Receive-side mirror of [unbound]: messages delivered before the
     member installed its receiver wait here and flush on [set_recv]. *)
  pending_rx : (int * Bytebuf.t) Queue.t;
  mutable recv : (incoming -> unit) option;
  (* Transport death notifications (a peer's connection reset under us).
     Unset by default: binding layers call [peer_down] unconditionally and
     the default is a no-op, so circuits without a failure detector behave
     exactly as before. *)
  mutable on_peer_down : (int -> unit) option;
  sent : Stats.Counter.t;
  received : Stats.Counter.t;
}

type outgoing = {
  circuit : t;
  dst : int;
  mutable pieces : Bytebuf.t list; (* reversed *)
  mutable closed : bool;
}

let create ~group ~rank ~name =
  if rank < 0 || rank >= Array.length group then
    invalid_arg "Ct.create: rank out of range";
  let scope = Metrics.Node (Simnet.Node.name group.(rank)) in
  { cname = name; crank = rank; group;
    links = Array.make (Array.length group) unbound_link;
    unbound = Hashtbl.create 4;
    pending_rx = Queue.create (); recv = None; on_peer_down = None;
    sent = Metrics.fresh_counter scope ("ct." ^ name ^ ".sent");
    received = Metrics.fresh_counter scope ("ct." ^ name ^ ".received") }

let name t = t.cname
let rank t = t.crank
let size t = Array.length t.group
let node t = t.group.(t.crank)

let node_of_rank t r =
  if r < 0 || r >= Array.length t.group then
    invalid_arg "Ct.node_of_rank: rank out of range";
  t.group.(r)

let set_links t ~ranks adapter =
  List.iter
    (fun dst ->
       if dst < 0 || dst >= Array.length t.group then
         invalid_arg "Ct.set_links: rank out of range";
       t.links.(dst) <- adapter;
       match Hashtbl.find_opt t.unbound dst with
       | Some q ->
         Hashtbl.remove t.unbound dst;
         Queue.iter
           (fun (iov, on_sent) ->
              adapter.a_sendv ~dst iov;
              match on_sent with Some f -> f () | None -> ())
           q
       | None -> ())
    ranks

let link_adapter_name t ~dst =
  match t.links.(dst) with
  | a when a != unbound_link -> a.a_name
  | _ ->
    invalid_arg
      (Printf.sprintf
         "Ct.link_adapter_name: circuit %s has no adapter bound for the \
          link from rank %d to rank %d"
         t.cname t.crank dst)

let begin_packing t ~dst =
  if dst < 0 || dst >= Array.length t.group then
    invalid_arg "Ct.begin_packing: rank out of range";
  { circuit = t; dst; pieces = []; closed = false }

let pack out piece =
  if out.closed then invalid_arg "Ct.pack: message already sent";
  out.pieces <- piece :: out.pieces

let pack_int out v =
  let b = Bytebuf.create 8 in
  Bytebuf.set_int b 0 v;
  pack out b

let end_packing ?on_sent out =
  if out.closed then invalid_arg "Ct.end_packing: message already sent";
  out.closed <- true;
  let t = out.circuit in
  Stats.Counter.incr t.sent;
  if Trace.on () then
    Trace.instant (node t)
      (Padico_obs.Event.Ct_pack
         { circuit = t.cname; dst = out.dst;
           bytes =
             List.fold_left (fun a b -> a + Bytebuf.length b) 0 out.pieces });
  match t.links.(out.dst) with
  | a when a == unbound_link ->
    (* Adapter not bound yet: hold the message, flushed by set_links. *)
    let q =
      match Hashtbl.find_opt t.unbound out.dst with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace t.unbound out.dst q;
        q
    in
    Queue.push (List.rev out.pieces, on_sent) q
  | a ->
    Simnet.Node.cpu_async (node t) Calib.circuit_op_ns (fun () ->
        a.a_sendv ~dst:out.dst (List.rev out.pieces);
        match on_sent with Some f -> f () | None -> ())

let check_remaining inc n =
  if n < 0 || inc.pos + n > Bytebuf.length inc.payload then
    invalid_arg
      (Printf.sprintf "Ct.unpack: %d bytes requested, %d remain" n
         (Bytebuf.length inc.payload - inc.pos))

let unpack inc n =
  check_remaining inc n;
  let piece = Bytebuf.sub inc.payload inc.pos n in
  inc.pos <- inc.pos + n;
  piece

let unpack_int inc =
  check_remaining inc 8;
  let v = Bytebuf.get_int inc.payload inc.pos in
  inc.pos <- inc.pos + 8;
  v

let remaining inc = Bytebuf.length inc.payload - inc.pos

let incoming_src inc = inc.src

let set_recv t f =
  t.recv <- Some f;
  while not (Queue.is_empty t.pending_rx) do
    let src, payload = Queue.pop t.pending_rx in
    f { payload; src; pos = 0 }
  done

let deliver t ~src payload =
  Stats.Counter.incr t.received;
  if Trace.on () then
    Trace.instant (node t)
      (Padico_obs.Event.Ct_recv
         { circuit = t.cname; src; bytes = Bytebuf.length payload });
  Simnet.Node.cpu_async (node t) Calib.circuit_op_ns (fun () ->
      match t.recv with
      | Some f -> f { payload; src; pos = 0 }
      | None -> Queue.push (src, payload) t.pending_rx)

let set_on_peer_down t f = t.on_peer_down <- Some f

let peer_down t ~rank =
  if rank >= 0 && rank < Array.length t.group then
    match t.on_peer_down with Some f -> f rank | None -> ()

let messages_sent t = Stats.Counter.value t.sent

let messages_received t = Stats.Counter.value t.received

(* Multi-cluster grid topology generator: [clusters] SAN islands of
   [nodes_per_cluster] nodes each, every node also attached to one shared
   WAN segment (the vthd/transcontinental backbone of the paper's testbed).
   This is the scaled-up stage for topology-aware collectives — thousands
   of simulated nodes in a shape where flat and multilevel strategies
   differ by an order of magnitude in WAN crossings. *)

type t = {
  grid : Padico.t;
  nodes : Simnet.Node.t list;  (* cluster-major rank order *)
  clusters : Simnet.Node.t list list;
  wan : Simnet.Segment.t;
}

(* [sharded] places every SAN island on its own shard of the conservative
   parallel engine — the natural cut: intra-island traffic (the SAN, the
   loopbacks) stays shard-local and only WAN frames cross, with the WAN
   latency as lookahead. Run with [Padico.run ~domains]. *)
let generate ?seed ?prefs ?backend ?(sharded = false)
    ?(san = Simnet.Presets.myrinet2000)
    ?(wan = Simnet.Presets.vthd) ~clusters ~nodes_per_cluster () =
  if clusters < 1 then invalid_arg "Gridgen.generate: clusters < 1";
  if nodes_per_cluster < 1 then
    invalid_arg "Gridgen.generate: nodes_per_cluster < 1";
  let grid =
    Padico.create ?seed ?prefs ?backend
      ~shards:(if sharded then clusters else 1) ()
  in
  let islands =
    List.init clusters (fun c ->
        List.init nodes_per_cluster (fun i ->
            Padico.add_node
              ~shard:(if sharded then c else 0)
              grid (Printf.sprintf "c%d-n%d" c i)))
  in
  List.iteri
    (fun c island ->
       ignore
         (Padico.add_segment grid san ~name:(Printf.sprintf "san%d" c) island))
    islands;
  let nodes = List.concat islands in
  let wan_seg = Padico.add_segment grid wan ~name:"wan" nodes in
  { grid; nodes; clusters = islands; wan = wan_seg }

let size t = List.length t.nodes

(* ---------- edge-gateway scenario (experiment E15) ---------- *)

module Sysio = Netaccess.Sysio
module Bytebuf = Engine.Bytebuf
module Rng = Engine.Rng
module Clock = Engine.Clock

(* An edge gateway: [shards] frontend nodes accepting WAN clients, the
   client population hosted on [client_nodes] nodes (the sim TCP stack
   keys connections by (local port, peer, peer port), so one node carries
   thousands of client connections on distinct ephemeral ports). *)
type edge = {
  e_grid : Padico.t;
  e_shards : Simnet.Node.t list;
  e_clients : Simnet.Node.t list;
  e_wan : Simnet.Segment.t;
  e_port : int;  (* every shard listens on this logical port *)
  e_nclients : int;
  e_churn : float;
  e_tail : float;
  e_seed : int;
  e_bufsize : int;  (* per-connection snd/rcv buffer budget *)
}

type edge_stats = {
  es_established : int;
  es_requests : int;  (* requests fully acked *)
  es_reconnects : int;  (* churn: closed then re-dialed the same port *)
  es_aborted : int;  (* mid-handshake aborts *)
  es_resets : int;
  es_served : int;  (* requests parsed and acked by the shards *)
}

let edge_port = 7100

(* [sharded] gives every node — frontend and client host alike — its own
   shard: the topology is one flat WAN, so there is no island structure to
   exploit and per-node shards expose the maximum parallelism the
   conservative engine can find in it. *)
let edge ?(seed = 42) ?prefs ?backend ?(sharded = false)
    ?(wan = Simnet.Presets.vthd)
    ?(shards = 4) ?(client_nodes = 16) ?(bufsize = 4096)
    ~clients ~churn ~tail () =
  if clients < 1 then invalid_arg "Gridgen.edge: clients < 1";
  if shards < 1 then invalid_arg "Gridgen.edge: shards < 1";
  if client_nodes < 1 then invalid_arg "Gridgen.edge: client_nodes < 1";
  if churn < 0.0 || churn > 1.0 then
    invalid_arg "Gridgen.edge: churn not in [0, 1]";
  if tail <= 1.0 then invalid_arg "Gridgen.edge: tail must exceed 1.0";
  let grid =
    Padico.create ~seed ?prefs ?backend
      ~shards:(if sharded then shards + client_nodes else 1) ()
  in
  let place i = if sharded then i else 0 in
  let sh =
    List.init shards (fun i ->
        Padico.add_node ~shard:(place i) grid (Printf.sprintf "edge-s%d" i))
  in
  let cl =
    List.init client_nodes (fun i ->
        Padico.add_node ~shard:(place (shards + i)) grid
          (Printf.sprintf "edge-c%d" i))
  in
  let wan_seg = Padico.add_segment grid wan ~name:"edge-wan" (sh @ cl) in
  { e_grid = grid; e_shards = sh; e_clients = cl; e_wan = wan_seg;
    e_port = edge_port; e_nclients = clients; e_churn = churn; e_tail = tail;
    e_seed = seed; e_bufsize = bufsize }

(* Heavy-tailed request sizes: Pareto(xm = 64, alpha = tail) clamped to
   [64 B, 64 KB] — most requests tiny, the tail real. *)
let pareto_size rng ~tail =
  let u = 1.0 -. Rng.float rng 1.0 in
  let s = 64.0 *. (u ** (-1.0 /. tail)) in
  max 64 (min 65_536 (int_of_float s))

(* The wire protocol: 4-byte big-endian payload length, payload, and a
   4-byte ack back. Chunks are composed on the fly (a zero payload byte is
   as expensive to simulate as a real one), so 100k in-flight requests
   never materialise whole messages. *)
let header_len = 4

let chunk ~total ~off n =
  let b = Bytebuf.create n in
  Bytebuf.fill_zero b;
  for k = 0 to n - 1 do
    let pos = off + k in
    if pos < header_len then
      Bytebuf.set_u8 b k ((total lsr (8 * (header_len - 1 - pos))) land 0xff)
  done;
  b

(* Per-shard server: incremental length-prefix parser per accepted
   connection, acks owed flushed under backpressure. *)
let serve_shard e served node =
  let sio = Sysio.get node in
  let stack = Sysio.stack_on sio e.e_wan in
  Sysio.listen ~sndbuf:e.e_bufsize ~rcvbuf:e.e_bufsize sio stack
    ~port:e.e_port (fun conn ->
        let hgot = ref 0 and need = ref 0 and body = ref 0 in
        let ack_owed = ref 0 in
        let flush_acks () =
          let continue = ref true in
          while !continue && !ack_owed > 0 do
            let b = Bytebuf.create (min !ack_owed 4) in
            Bytebuf.fill_zero b;
            let w = Sysio.write conn b in
            if w = 0 then continue := false else ack_owed := !ack_owed - w
          done
        in
        let consume b =
          let len = Bytebuf.length b in
          let pos = ref 0 in
          while !pos < len do
            if !body > 0 then begin
              let take = min !body (len - !pos) in
              body := !body - take;
              pos := !pos + take;
              if !body = 0 then begin
                Atomic.incr served;
                ack_owed := !ack_owed + 4;
                flush_acks ()
              end
            end
            else begin
              need := (!need lsl 8) lor Bytebuf.get_u8 b !pos;
              incr pos;
              incr hgot;
              if !hgot = header_len then begin
                body := !need;
                hgot := 0;
                need := 0;
                if !body = 0 then begin
                  Atomic.incr served;
                  ack_owed := !ack_owed + 4;
                  flush_acks ()
                end
              end
            end
          done
        in
        let on_readable () =
          let continue = ref true in
          while !continue do
            match Sysio.read conn ~max:65_536 with
            | None -> continue := false
            | Some b -> consume b
          done
        in
        Sysio.watch sio conn (fun ev ->
            match ev with
            | Drivers.Tcp.Readable -> on_readable ()
            | Drivers.Tcp.Writable -> flush_acks ()
            | Drivers.Tcp.Peer_closed ->
              Sysio.unwatch sio conn;
              Sysio.close conn
            | Drivers.Tcp.Reset -> Sysio.unwatch sio conn
            | Drivers.Tcp.Established -> ());
        (* The accept callback runs a dispatch round after [Established]:
           request bytes (or a FIN) may already be in — the edge-triggered
           events fired into the pre-watch no-op callback. Catch up by
           polling, the documented idiom. *)
        if Sysio.readable_bytes conn > 0 then on_readable ();
        if Sysio.peer_closed conn then begin
          Sysio.unwatch sio conn;
          Sysio.close conn
        end)

let run_edge ?(ramp_ns = 5_000) ?active ?until ?domains e =
  (* Atomic tallies: in a sharded run the server-side [served] bumps on
     frontend shards race the client-side counters; the snapshot into
     [edge_stats] happens after the run returns. Single-domain cost is
     negligible next to the TCP machinery per request. *)
  let established = Atomic.make 0 and requests = Atomic.make 0 in
  let reconnects = Atomic.make 0 and aborted = Atomic.make 0 in
  let resets = Atomic.make 0 and served = Atomic.make 0 in
  List.iter (serve_shard e served) e.e_shards;
  let rng = Rng.create (e.e_seed lxor 0x5eed) in
  let shards = Array.of_list e.e_shards in
  let cnodes = Array.of_list e.e_clients in
  let nshards = Array.length shards in
  let active = match active with Some a -> min a e.e_nclients | None -> e.e_nclients in
  let starts = Array.make (max 1 e.e_nclients) (fun () -> ()) in
  for i = 0 to e.e_nclients - 1 do
    let cnode = cnodes.(i mod Array.length cnodes) in
    let shard = shards.(i mod nshards) in
    let sio = Sysio.get cnode in
    let stack = Sysio.stack_on sio e.e_wan in
    let clk = Simnet.Node.clock cnode in
    let sends_request = i < active in
    let abort_handshake = e.e_churn > 0.0 && Rng.bool rng (e.e_churn /. 4.0) in
    let churns = e.e_churn > 0.0 && Rng.bool rng e.e_churn in
    let size1 = pareto_size rng ~tail:e.e_tail in
    let size2 = pareto_size rng ~tail:e.e_tail in
    let start () =
      (* [rounds] requests left on the current connection (0 on the idle
         population); churners close after the first ack and re-dial the
         same logical port. *)
      let rec dial ~rounds ~reconnect =
        let total = ref (header_len + if rounds = 2 then size1 else size2) in
        let sent = ref 0 and ack = ref 0 in
        let conn = ref None in
        let push () =
          match !conn with
          | None -> ()
          | Some c ->
            let continue = ref true in
            while !continue && !sent < !total do
              let space = Sysio.write_space c in
              if space = 0 then continue := false
              else begin
                let n = min space (min (!total - !sent) 4096) in
                let w = Sysio.write c (chunk ~total:(!total - header_len) ~off:!sent n) in
                sent := !sent + w;
                if w = 0 then continue := false
              end
            done
        in
        let c =
          Sysio.connect ~sndbuf:e.e_bufsize ~rcvbuf:e.e_bufsize sio stack
            ~dst:(Simnet.Node.id shard) ~port:e.e_port
            (fun c ev ->
               match ev with
               | Drivers.Tcp.Established ->
                 Atomic.incr established;
                 if reconnect then Atomic.incr reconnects;
                 if rounds > 0 then push ()
               | Drivers.Tcp.Writable -> push ()
               | Drivers.Tcp.Readable ->
                 let continue = ref true in
                 while !continue do
                   match Sysio.read c ~max:4096 with
                   | None -> continue := false
                   | Some b -> ack := !ack + Bytebuf.length b
                 done;
                 if !ack >= 4 && !sent >= !total then begin
                   Atomic.incr requests;
                   if rounds >= 2 then begin
                     (* Churn: tear the connection down and come back to
                        the same logical port on a fresh ephemeral one. *)
                     Sysio.unwatch sio c;
                     Sysio.close c;
                     dial ~rounds:1 ~reconnect:true
                   end
                 end
               | Drivers.Tcp.Peer_closed ->
                 Sysio.unwatch sio c;
                 Sysio.close c
               | Drivers.Tcp.Reset ->
                 Atomic.incr resets;
                 Sysio.unwatch sio c)
        in
        conn := Some c
      in
      if abort_handshake then begin
        (* A client that gives up mid-handshake (SYN sent, then gone) and
           re-dials: the accept path must survive half-open churn. *)
        let c =
          Sysio.connect ~sndbuf:e.e_bufsize ~rcvbuf:e.e_bufsize sio stack
            ~dst:(Simnet.Node.id shard) ~port:e.e_port (fun _ _ -> ())
        in
        Clock.after clk 1_000 (fun () ->
            Sysio.abort c;
            Sysio.unwatch sio c;
            Atomic.incr aborted;
            dial ~rounds:(if sends_request then if churns then 2 else 1 else 0)
              ~reconnect:true)
      end
      else
        dial ~rounds:(if sends_request then if churns then 2 else 1 else 0)
          ~reconnect:false
    in
    starts.(i) <- start
  done;
  (* Ramped arrivals: a flash crowd is modelled by a short ramp, steady
     load by a long one. Client [i] starts at [i * ramp_ns], on its own
     node's clock (so on its own shard). Each client node runs one
     cascade — each start schedules the node's next — so the engine heap
     holds one pending arrival per client node instead of the whole
     population (100k up-front events would tax every heap operation with
     the population's log factor). *)
  let ncnodes = Array.length cnodes in
  for k = 0 to min ncnodes e.e_nclients - 1 do
    let clk = Simnet.Node.clock cnodes.(k) in
    let rec kick i () =
      if i < e.e_nclients then begin
        starts.(i) ();
        Clock.after clk (ncnodes * ramp_ns) (kick (i + ncnodes))
      end
    in
    Clock.after clk (k * ramp_ns) (kick k)
  done;
  (match until with
   | Some u -> Padico.run e.e_grid ~until:u ?domains
   | None -> Padico.run e.e_grid ?domains);
  { es_established = Atomic.get established;
    es_requests = Atomic.get requests;
    es_reconnects = Atomic.get reconnects;
    es_aborted = Atomic.get aborted;
    es_resets = Atomic.get resets;
    es_served = Atomic.get served }

(* san_mix: closed loop in the paper's own regime. 8 nodes share one
   Myrinet-2000 segment as 4 client/server pairs; every pair runs one
   request/reply loop per stack (Circuit through Madpers, VLink through
   Vio, MPI, CORBA omniORB4, CORBA Mico, Java sockets) with request sizes
   drawn log-uniformly from 4 B to 64 KB, and pair 0 also carries one MPI
   bulk stream of 1 MB messages. Every reply must equal its request byte
   for byte. An op is one request/reply (or one bulk message, which adds
   to goodput but not to latency). *)

module Bb = Engine.Bytebuf
module Ct = Circuit.Ct
module Madpers = Personalities.Madpers
module Vio = Personalities.Vio
module Mpi = Mw_mpi.Mpi
module Orb = Mw_corba.Orb
module Cdr = Mw_corba.Cdr
module Jsock = Mw_java.Jsock

let pairs = 4
let min_size = 4
let max_size = 65_536
let bulk_size = 1_000_000
let bulk_window = 2  (* bulk messages in flight *)
let timeout_ns = Engine.Time.sec 10

(* Request/reply ops in the virt window, all stacks together. *)
let window_ops = function Pb.Full -> 24_000 | Pb.Small -> 1_200

(* 4-byte length prefix for the byte-stream stacks. *)
let header n =
  let b = Bb.create 4 in
  Bb.set_u32 b 0 n;
  b

let setup (cfg : Pb.cfg) =
  let seed = cfg.Pb.seed in
  let grid = Padico.create ~seed () in
  let nodes = List.init (2 * pairs) (fun i -> Padico.add_node grid (Printf.sprintf "san%d" i)) in
  ignore (Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"myrinet" nodes);
  let node = Array.of_list nodes in
  let h0 = Pb.cpu_ns () in
  let ct = Padico.circuit grid ~name:"pb-ct" nodes in
  let mpi_ct = Padico.circuit grid ~name:"pb-mpi" nodes in
  let circuit_s = float_of_int (Pb.cpu_ns () - h0) /. 1e9 in
  let mp = Array.map Madpers.attach ct in
  let comms = Mpi.init mpi_ct in
  let orbs profile = Array.map (fun n -> Orb.init ~profile grid n) node in
  let omni = orbs Cdr.omniorb4 and mico = orbs Cdr.mico in
  let echo_servant ~op:_ v = Ok v in
  for p = 0 to pairs - 1 do
    let s = (2 * p) + 1 in
    Orb.activate omni.(s) ~key:"echo" echo_servant;
    Orb.serve omni.(s) ~port:5000;
    Orb.activate mico.(s) ~key:"echo" echo_servant;
    Orb.serve mico.(s) ~port:5100
  done;
  let nstacks = List.length Spec.stacks in
  let stack_lat = Array.init nstacks (fun _ -> Pb.Samples.create ()) in
  let in_flight = Array.make (pairs * nstacks) (-1) in
  let bulk_bytes = ref 0 and bulk_t0 = ref (-1) and bulk_t1 = ref 0 in
  let nwin = window_ops cfg.Pb.scale in
  let closed = ref false in
  let now () = Padico.now grid in
  (* Servers: one echo per stack on every server node. Bodies and replies
     land in one reused buffer per connection side: the loops are closed,
     so a buffer is free again once its round trip is over. *)
  let stream_echo read_exact write =
    let hdr = Bb.create 4 and buf = Bb.create max_size in
    while read_exact hdr do
      let body = Bb.sub buf 0 (Bb.get_u32 hdr 0) in
      if read_exact body then write body
    done
  in
  for p = 0 to pairs - 1 do
    let s = (2 * p) + 1 in
    Pb.spawn grid node.(s) "ct-echo" (fun () ->
        while true do
          let src, inc = Madpers.recv_blocking mp.(s) in
          let data = Ct.unpack inc (Ct.remaining inc) in
          let out = Madpers.begin_packing mp.(s) ~dst:src in
          Madpers.pack out data;
          Madpers.end_packing out
        done);
    Pb.spawn grid node.(s) "mpi-echo" (fun () ->
        while true do
          let src, _, m = Mpi.recv comms.(s) ~tag:1 () in
          Mpi.send comms.(s) ~dst:src ~tag:2 m
        done);
    Padico.listen grid node.(s) ~port:(4000 + p) (fun vl ->
        Pb.spawn grid node.(s) "vio-echo" (fun () ->
            stream_echo (Vio.read_exact vl) (fun b -> ignore (Vio.write vl b))));
    let server = Jsock.server_socket grid node.(s) ~port:(7000 + p) in
    Pb.spawn grid node.(s) "java-echo" (fun () ->
        let sock = Jsock.accept server in
        stream_echo (Jsock.input_read_fully sock) (Jsock.output_write sock))
  done;
  (* Clients: [connect stack c s] opens the stack's connection (process
     context) and returns its request/reply function; [send] brackets the
     sending call for the traced run. *)
  let send ~span stack f =
    Pb.Span.wrap ~parent:(Pb.Span.id span) ~op:span.Pb.Span.op (stack ^ ".send") now f
  in
  let connect stack c s =
    let p = c / 2 in
    match stack with
    | "circuit" ->
      fun req ~span ->
        send ~span stack (fun () ->
            let out = Madpers.begin_packing mp.(c) ~dst:s in
            Madpers.pack out req;
            Madpers.end_packing out);
        let _, inc = Madpers.recv_blocking mp.(c) in
        Ct.unpack inc (Ct.remaining inc)
    | "vlink" ->
      let vl = Padico.connect grid ~src:node.(c) ~dst:node.(s) ~port:(4000 + p) in
      (match Vio.connect_wait vl with Ok () -> () | Error e -> failwith e);
      let buf = Bb.create max_size in
      fun req ~span ->
        send ~span stack (fun () ->
            ignore (Vio.write vl (header (Bb.length req)));
            ignore (Vio.write vl req));
        let reply = Bb.sub buf 0 (Bb.length req) in
        if not (Vio.read_exact vl reply) then failwith "vlink eof";
        reply
    | "mpi" ->
      fun req ~span ->
        send ~span stack (fun () -> Mpi.send comms.(c) ~dst:s ~tag:1 req);
        let _, _, m = Mpi.recv comms.(c) ~source:s ~tag:2 () in
        m
    | "java" ->
      let sock = Jsock.connect grid ~src:node.(c) ~dst:node.(s) ~port:(7000 + p) in
      let buf = Bb.create max_size in
      fun req ~span ->
        send ~span stack (fun () ->
            Jsock.output_write sock (header (Bb.length req));
            Jsock.output_write sock req);
        let reply = Bb.sub buf 0 (Bb.length req) in
        if not (Jsock.input_read_fully sock reply) then failwith "java eof";
        reply
    | _ ->
      let orbs, port = if stack = "corba-omniorb4" then (omni, 5000) else (mico, 5100) in
      let proxy =
        Orb.resolve orbs.(c) { Orb.ior_node = node.(s); ior_port = port; ior_key = "echo" }
      in
      fun req ~span ->
        match send ~span stack (fun () -> Orb.invoke proxy ~op:"echo" (Cdr.VOctets req)) with
        | Ok (Cdr.VOctets b) -> b
        | Ok _ | Error _ -> failwith "corba reply"
  in
  (* Warm-up, part of the set-up: every client opens its connection and
     makes one 4-byte echo, so lazy connection set-up is done before the
     timed phase. *)
  let rpcs = Array.make (pairs * nstacks) None in
  List.iteri
    (fun si stack ->
       for p = 0 to pairs - 1 do
         let c = 2 * p in
         Pb.spawn grid node.(c) (stack ^ "-warm-up") (fun () ->
             let rpc = connect stack c (c + 1) in
             let probe = Pb.pattern 4 ~seed in
             if Bb.equal (rpc probe ~span:Pb.Span.none) probe then
               rpcs.((p * nstacks) + si) <- Some rpc)
       done)
    Spec.stacks;
  let ready () = Array.for_all Option.is_some rpcs in
  if not (Pb.run_until grid ~slice_ns:(Engine.Time.us 100) ~limit_ns:(Engine.Time.sec 10) ready)
  then failwith "san_mix: warm-up echo did not complete";
  let start (rec_ : Pb.recorder) ~on_window =
    let next_op = ref 0 in
    let finish_op ~lat ~ok ~t0 ~w0 ~bytes ~sum =
      let t1 = now () in
      let in_window = not !closed in
      Pb.complete rec_ ~in_window ~lat ~ok ~virt_ns:(t1 - t0)
        ~w0 ~bytes ~sum;
      if in_window && lat && Pb.Samples.count rec_.Pb.virt_lat = nwin then begin
        closed := true;
        rec_.Pb.window_end <- t1;
        on_window ()
      end;
      in_window
    in
    (* One client loop per (pair, stack): seeded sizes, byte-exact check. *)
    let client ~slot ~si ~stack rpc () =
      let r = Pb.rng ~seed (1000 + slot) in
      let pool = Pb.pattern (2 * max_size) ~seed:(Hashtbl.hash (seed, slot)) in
      while true do
        let size = Pb.log_uniform r ~lo:min_size ~hi:max_size in
        let req = Bb.sub pool (Engine.Rng.int r max_size) size in
        incr next_op;
        let t0 = now () and w0 = Pb.cpu_ns () in
        in_flight.(slot) <- t0;
        let span = Pb.Span.start ~op:!next_op (stack ^ ".op") t0 in
        let ok, reply =
          match rpc req ~span with
          | reply -> (Bb.equal reply req, reply)
          | exception Failure _ -> (false, Bb.create 0)
        in
        let t1 = now () in
        Pb.Span.finish span t1;
        in_flight.(slot) <- -1;
        if finish_op ~lat:true ~ok ~t0 ~w0 ~bytes:(2 * size) ~sum:(Bb.checksum reply)
        then Pb.Samples.add stack_lat.(si) (t1 - t0)
      done
    in
    List.iteri
      (fun si stack ->
         for p = 0 to pairs - 1 do
           let slot = (p * nstacks) + si in
           Pb.spawn grid node.(2 * p) (stack ^ "-client")
             (client ~slot ~si ~stack (Option.get rpcs.(slot)))
         done)
      Spec.stacks;
    (* The bulk stream: pair 0, at most [bulk_window] messages in flight,
       acknowledged one by one. *)
    let bulk = Pb.pattern bulk_size ~seed:(Hashtbl.hash (seed, "bulk")) in
    let bulk_sum = Bb.checksum bulk in
    Pb.spawn grid node.(1) "bulk-sink" (fun () ->
        while true do
          let _, _, m = Mpi.recv comms.(1) ~source:0 ~tag:9 () in
          let t = now () in
          (* Bulk goodput is measured over the virt window, like every
             other virt figure: the first message starts the clock. *)
          if not !closed then begin
            if !bulk_t0 < 0 then bulk_t0 := t
            else bulk_bytes := !bulk_bytes + Bb.length m;
            bulk_t1 := t
          end;
          Mpi.send comms.(1) ~dst:0 ~tag:10 (Bb.of_string (string_of_int (Bb.checksum m)))
        done);
    Pb.spawn grid node.(0) "bulk-source" (fun () ->
        let sent = Queue.create () in
        while true do
          Queue.push (now (), Pb.cpu_ns ()) sent;
          Mpi.send comms.(0) ~dst:1 ~tag:9 bulk;
          if Queue.length sent >= bulk_window then begin
            let _, _, ack = Mpi.recv comms.(0) ~source:1 ~tag:10 () in
            let t0, w0 = Queue.pop sent in
            let ok = Bb.to_string ack = string_of_int bulk_sum in
            ignore (finish_op ~lat:false ~ok ~t0 ~w0 ~bytes:bulk_size ~sum:bulk_sum)
          end
        done)
  in
  let window_complete () = !closed in
  let stuck ~quiesced =
    let now = Padico.now grid in
    Array.fold_left
      (fun a t0 -> if t0 >= 0 && (quiesced || now - t0 > timeout_ns) then a + 1 else a)
      0 in_flight
  in
  let layer_metrics () =
    List.concat (List.mapi (fun si stack -> Pb.stack_metrics stack stack_lat.(si)) Spec.stacks)
    @ [ Pb.metric ~samples:(!bulk_bytes / bulk_size) "mpi.bulk_goodput_mb_s" "MB/s"
          (Pb.mb_s !bulk_bytes (!bulk_t1 - !bulk_t0)) ]
  in
  { Pb.ctx = Layers.ctx grid nodes;
    virt_on_host = false;
    parts = [ Pb.metric ~samples:2 "circuit.create_s" "s" circuit_s ];
    start;
    slice_ns = Engine.Time.ms 2;
    window_complete;
    finished = (fun () -> false);
    stuck;
    layer_metrics;
    teardown = (fun () -> ()) }

(* host_echo: closed loop on the real-OS backend. Two nodes of a
   [Padico.create ~backend:Host] grid talk over host loopback sockets: one
   client runs a VLink echo, the other a Circuit (ct_sysio) echo through
   Madpers, with request sizes drawn log-uniformly from 64 B to 64 KB.
   Two real connections in all. Each reply must equal its request. The
   set-up ends once both connections have carried one warm-up echo. *)

module Bb = Engine.Bytebuf
module Ct = Circuit.Ct
module Madpers = Personalities.Madpers
module Vio = Personalities.Vio

let min_size = 64
let max_size = 65_536
let port = 4700
let timeout_ns = Engine.Time.sec 10
let window_ops = function Pb.Full -> 100_000 | Pb.Small -> 400

let header n =
  let b = Bb.create 4 in
  Bb.set_u32 b 0 n;
  b

let setup (cfg : Pb.cfg) =
  let seed = cfg.Pb.seed in
  let grid = Padico.create ~seed ~backend:Padico.Host () in
  let a = Padico.add_node grid "host-a" and b = Padico.add_node grid "host-b" in
  let lan = Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ] in
  let h0 = Pb.cpu_ns () in
  let ct = Padico.circuit grid ~name:"pb-host-ct" [ a; b ] in
  let circuit_s = float_of_int (Pb.cpu_ns () - h0) /. 1e9 in
  let mp = Array.map Madpers.attach ct in
  let now () = Padico.now grid in
  (* Replies land in one reused buffer per side: the loops are closed, so a
     buffer is free again once its round trip is over. *)
  let echo_buf = Bb.create max_size in
  let server_vl = ref None in
  Padico.listen grid b ~port (fun vl ->
      server_vl := Some vl;
      Pb.spawn grid b "vio-echo" (fun () ->
          let hdr = Bb.create 4 in
          try
            while Vio.read_exact vl hdr do
              let body = Bb.sub echo_buf 0 (Bb.get_u32 hdr 0) in
              if Vio.read_exact vl body then ignore (Vio.write vl body)
            done
          with Failure _ -> ()));
  Pb.spawn grid b "ct-echo" (fun () ->
      while true do
        let src, inc = Madpers.recv_blocking mp.(1) in
        let data = Ct.unpack inc (Ct.remaining inc) in
        let out = Madpers.begin_packing mp.(1) ~dst:src in
        Madpers.pack out data;
        Madpers.end_packing out
      done);
  let vl = Padico.connect grid ~src:a ~dst:b ~port in
  let send ~span stack f =
    Pb.Span.wrap ~parent:(Pb.Span.id span) ~op:span.Pb.Span.op (stack ^ ".send") now f
  in
  let reply_buf = Bb.create max_size in
  let vl_rpc req ~span =
    send ~span "vlink" (fun () ->
        ignore (Vio.write vl (header (Bb.length req)));
        ignore (Vio.write vl req));
    let reply = Bb.sub reply_buf 0 (Bb.length req) in
    if not (Vio.read_exact vl reply) then failwith "vlink eof";
    reply
  in
  let ct_rpc req ~span =
    send ~span "circuit" (fun () ->
        let out = Madpers.begin_packing mp.(0) ~dst:1 in
        Madpers.pack out req;
        Madpers.end_packing out);
    let _, inc = Madpers.recv_blocking mp.(0) in
    Ct.unpack inc (Ct.remaining inc)
  in
  (* Warm-up: both real connections up and one echo through each. *)
  let ready = ref 0 in
  Pb.spawn grid a "warm-up" (fun () ->
      (match Vio.connect_wait vl with Ok () -> () | Error e -> failwith e);
      let probe = Pb.pattern 64 ~seed in
      List.iter
        (fun rpc -> if Bb.equal (rpc probe ~span:Pb.Span.none) probe then incr ready)
        [ vl_rpc; ct_rpc ]);
  if
    not
      (Pb.run_until grid ~slice_ns:(Engine.Time.ms 5) ~limit_ns:(Engine.Time.sec 10)
         (fun () -> !ready = 2))
  then failwith "host_echo: warm-up echo did not complete";
  let stopping = ref false in
  let in_flight = Array.make 2 (-1) in
  let lat = [| Pb.Samples.create (); Pb.Samples.create () |] in
  let nwin = window_ops cfg.Pb.scale in
  let closed = ref false in
  let start (rec_ : Pb.recorder) ~on_window =
    let client slot stack rpc () =
      let r = Pb.rng ~seed (100 + slot) in
      let pool = Pb.pattern (2 * max_size) ~seed:(Hashtbl.hash (seed, slot)) in
      let opid = ref slot in
      while not !stopping do
        let size = Pb.log_uniform r ~lo:min_size ~hi:max_size in
        let req = Bb.sub pool (Engine.Rng.int r max_size) size in
        opid := !opid + 2;
        (* Latency on the benchmark's CPU clock (see [Pb.inst]); the engine
           clock only dates the op for the stuck check and its span. *)
        let t0 = now () and w0 = Pb.cpu_ns () in
        in_flight.(slot) <- t0;
        let span = Pb.Span.start ~op:!opid (stack ^ ".op") t0 in
        let ok, reply =
          match rpc req ~span with
          | reply -> (Bb.equal reply req, reply)
          | exception Failure _ -> (false, Bb.create 0)
        in
        let t1 = now () and w1 = Pb.cpu_ns () in
        Pb.Span.finish span t1;
        in_flight.(slot) <- -1;
        (* Real time does not repeat: the window (the first [nwin] ops)
           only bounds the samples kept, it gives no digest. *)
        if not !stopping then begin
          let in_window = not !closed in
          Pb.complete rec_ ~in_window ~lat:true ~ok ~virt_ns:(w1 - w0)
            ~w0 ~bytes:(2 * size) ~sum:(Bb.checksum reply);
          if in_window then begin
            Pb.Samples.add lat.(slot) (w1 - w0);
            if rec_.Pb.window_done = nwin then begin
              closed := true;
              rec_.Pb.window_end <- w1;
              on_window ()
            end
          end
        end
      done
    in
    Pb.spawn grid a "vlink-client" (client 0 "vlink" vl_rpc);
    Pb.spawn grid a "circuit-client" (client 1 "circuit" ct_rpc)
  in
  let stuck ~quiesced =
    let now = Padico.now grid in
    Array.fold_left
      (fun acc t0 -> if t0 >= 0 && (quiesced || now - t0 > timeout_ns) then acc + 1 else acc)
      0 in_flight
  in
  let teardown () =
    (* Stop the clients, close the VLink and pull the segment down so the
       circuit's socket is reset too; the reactor then has nothing left. *)
    stopping := true;
    Vio.close vl;
    Option.iter Vio.close !server_vl;
    Simnet.Segment.set_down lan true;
    let until = Padico.now grid + Engine.Time.ms 200 in
    Padico.run grid ~until
  in
  let layer_metrics () =
    (* Host self time of every send that did not wait, both stacks. *)
    let sends = Pb.Samples.create () in
    List.iter
      (fun stack ->
         Option.iter
           (fun a ->
              let s = a.Pb.Span.self_host in
              for i = 0 to Pb.Samples.count s - 1 do
                Pb.Samples.add sends s.Pb.Samples.a.(i)
              done)
           (Pb.Span.find (stack ^ ".send")))
      [ "vlink"; "circuit" ];
    Pb.stack_metrics "vlink" lat.(0) @ Pb.stack_metrics "circuit" lat.(1)
    @ [ Pb.metric ~samples:(Pb.Samples.count sends) "hostio.send_host_us.p50" "us"
          (Pb.Samples.us_at sends 50.0) ]
  in
  { Pb.ctx = Layers.ctx grid [ a; b ];
    virt_on_host = true;
    parts = [ Pb.metric ~samples:1 "circuit.create_s" "s" circuit_s ];
    start;
    slice_ns = Engine.Time.ms 50;
    window_complete = (fun () -> !closed);
    finished = (fun () -> false);
    stuck;
    layer_metrics;
    teardown }

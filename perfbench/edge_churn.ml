(* edge_churn: open loop in virtual time at an edge gateway. 4 frontends
   and 16 client hosts on the VTHD WAN, every node in Sysio edge mode.
   Independent sessions arrive as a Poisson process; the population is
   100k sessions. 80 % connect and stay idle, 13.75 % send one request and
   stay open, 5 % send a request, close, reconnect and send another, and
   1.25 % abort mid-handshake. Request sizes are Pareto (tail 1.3) from
   64 B to 64 KB; the frontends answer each request with a 4-byte ack.
   Latency runs from the session's due time to its final ack; an idle
   session is done once connected. Aborts are not operations. *)

module Bb = Engine.Bytebuf
module Sysio = Netaccess.Sysio
module Tcp = Drivers.Tcp
module Gridgen = Scenario.Gridgen
module Rng = Engine.Rng

let population = function Pb.Full -> 100_000 | Pb.Small -> 2_000

(* Mean gap between arrivals: 20 us, 50k sessions per virtual second —
   the frontends' WAN ports stay far from saturation, so no backlog
   builds up (the report compares early and late latencies). *)
let mean_gap_ns = 20_000.0
let tail = 1.3
let bufsize = 4096
let timeout_ns = Engine.Time.sec 30

type kind = Idle | Active | Churn | Abort

let setup (cfg : Pb.cfg) =
  let seed = cfg.Pb.seed in
  let n = population cfg.Pb.scale in
  (* The window is the first [nwin] sessions; at full scale, all of them. *)
  let nwin = match cfg.Pb.scale with Pb.Full -> n | Pb.Small -> 600 in
  let e = Gridgen.edge ~seed ~clients:n ~churn:0.05 ~tail () in
  let grid = e.Gridgen.e_grid in
  let served = Atomic.make 0 in
  List.iter (Gridgen.serve_shard e served) e.Gridgen.e_shards;
  let shards = Array.of_list e.Gridgen.e_shards in
  let cnodes = Array.of_list e.Gridgen.e_clients in
  let wan = e.Gridgen.e_wan in
  (* Session i: its due time, once started ([-1] before), and whether it
     has resolved. *)
  let due = Array.make n (-1) in
  let resolved = Bytes.make n '\000' in
  let started = ref 0 in
  let window_total = ref 0 and window_resolved = ref 0 in
  let handshake = Pb.Samples.create () in
  let conns_opened = ref 0 and lost0 = ref 0 and lost_w = ref 0 in
  let early = Pb.Samples.create () and late = Pb.Samples.create () in
  let closed = ref false in
  let start (rec_ : Pb.recorder) ~on_window =
    let now () = Padico.now grid in
    lost0 := Simnet.Segment.frames_lost wan;
    let r = Pb.rng ~seed 7 in
    let check_window () =
      if (not !closed) && !window_resolved = !window_total && !started >= nwin then begin
        closed := true;
        lost_w := Simnet.Segment.frames_lost wan - !lost0;
        rec_.Pb.window_end <- now ();
        on_window ()
      end
    in
    let resolve i ~lat ~ok ~bytes ~w0 =
      if Bytes.get resolved i = '\000' then begin
        Bytes.set resolved i '\001';
        let v = now () - due.(i) in
        let in_window = i < nwin in
        Pb.complete rec_ ~in_window ~lat ~ok ~virt_ns:v ~w0 ~bytes ~sum:(i + bytes);
        if lat then begin
          if i < n / 10 then Pb.Samples.add early v
          else if i >= n - (n / 10) then Pb.Samples.add late v
        end;
        if in_window then begin
          incr window_resolved;
          check_window ()
        end
      end
    in
    let session i kind ~size1 ~size2 =
      let cnode = cnodes.(i mod Array.length cnodes) in
      let shard = shards.(i mod Array.length shards) in
      let sio = Sysio.get cnode in
      let stack = Sysio.stack_on sio wan in
      let dst = Simnet.Node.id shard and port = e.Gridgen.e_port in
      let w0 = Pb.cpu_ns () in
      let span = Pb.Span.start ~op:i "edge.session" (now ()) in
      let fin ~lat ~ok ~bytes =
        Pb.Span.finish span (now ());
        (* Host latency of a session: from its start to its resolution. *)
        resolve i ~lat ~ok ~bytes ~w0
      in
      let rec dial ~rounds ~first ~acked_bytes =
        let size = if rounds = 2 || kind = Active then size1 else size2 in
        let total = Gridgen.header_len + size in
        let sent = ref 0 and ack = ref 0 in
        let conn = ref None in
        let t_conn = now () in
        let hs = Pb.Span.start ~parent:(Pb.Span.id span) ~op:i "tcp.connect" t_conn in
        if i < nwin then incr conns_opened;
        let push () =
          match !conn with
          | None -> ()
          | Some c ->
            let continue = ref true in
            while !continue && !sent < total do
              let space = Sysio.write_space c in
              if space = 0 then continue := false
              else begin
                let k = min space (min (total - !sent) 4096) in
                let w = Sysio.write c (Gridgen.chunk ~total:size ~off:!sent k) in
                sent := !sent + w;
                if w = 0 then continue := false
              end
            done
        in
        let c =
          Sysio.connect ~sndbuf:bufsize ~rcvbuf:bufsize sio stack ~dst ~port (fun c ev ->
              match ev with
              | Tcp.Established ->
                Pb.Span.finish hs (now ());
                if first && i < nwin then Pb.Samples.add handshake (now () - t_conn);
                if rounds = 0 then fin ~lat:false ~ok:true ~bytes:0 else push ()
              | Tcp.Writable -> push ()
              | Tcp.Readable ->
                let continue = ref true in
                while !continue do
                  match Sysio.read c ~max:4096 with
                  | None -> continue := false
                  | Some b -> ack := !ack + Bb.length b
                done;
                if !ack >= 4 && !sent >= total then begin
                  let acked_bytes = acked_bytes + size + 4 in
                  if rounds >= 2 then begin
                    Sysio.unwatch sio c;
                    Sysio.close c;
                    dial ~rounds:1 ~first:false ~acked_bytes
                  end
                  else fin ~lat:true ~ok:(!ack = 4) ~bytes:acked_bytes
                end
              | Tcp.Peer_closed ->
                Sysio.unwatch sio c;
                Sysio.close c
              | Tcp.Reset ->
                Sysio.unwatch sio c;
                fin ~lat:(rounds > 0) ~ok:false ~bytes:0)
        in
        conn := Some c
      in
      match kind with
      | Abort ->
        (* Gives up mid-handshake: SYN out, RST 1 us later. *)
        let c = Sysio.connect ~sndbuf:bufsize ~rcvbuf:bufsize sio stack ~dst ~port (fun _ _ -> ()) in
        Engine.Clock.after (Simnet.Node.clock cnode) 1_000 (fun () ->
            Sysio.abort c;
            Sysio.unwatch sio c;
            Pb.Span.finish span (now ()))
      | Idle -> dial ~rounds:0 ~first:true ~acked_bytes:0
      | Active -> dial ~rounds:1 ~first:true ~acked_bytes:0
      | Churn -> dial ~rounds:2 ~first:true ~acked_bytes:0
    in
    let clk0 = Simnet.Node.clock cnodes.(0) in
    let rec arrive i =
      if i < n then begin
        let u = Rng.float r 1.0 in
        let kind =
          if u < 0.0125 then Abort
          else if u < 0.0625 then Churn
          else if u < 0.2 then Active
          else Idle
        in
        let size1 = Gridgen.pareto_size r ~tail in
        let size2 = Gridgen.pareto_size r ~tail in
        due.(i) <- now ();
        started := i + 1;
        if kind = Abort then Bytes.set resolved i '\001'
        else if i < nwin then incr window_total;
        session i kind ~size1 ~size2;
        check_window ();
        let gap = int_of_float (Rng.exponential r ~mean:mean_gap_ns) in
        Engine.Clock.after clk0 gap (fun () -> arrive (i + 1))
      end
    in
    arrive 0
  in
  let stuck ~quiesced =
    let now = Padico.now grid in
    let k = ref 0 in
    for i = 0 to !started - 1 do
      if Bytes.get resolved i = '\000' && (quiesced || now - due.(i) > timeout_ns) then incr k
    done;
    !k
  in
  let finished () =
    !started = n
    &&
    let all = ref true in
    Bytes.iter (fun c -> if c = '\000' then all := false) resolved;
    !all
  in
  let layer_metrics () =
    let c = Pb.Samples.count handshake in
    Printf.printf "edge: latency p50 first 10%% %.1f us, last 10%% %.1f us (backlog check); %d served\n"
      (Pb.Samples.us_at early 50.0) (Pb.Samples.us_at late 50.0) (Atomic.get served);
    [ Pb.metric ~samples:c "tcp.handshake_virt_us.p50" "us" (Pb.Samples.us_at handshake 50.0);
      Pb.metric ~samples:c "tcp.handshake_virt_us.p99" "us" (Pb.Samples.us_at handshake 99.0);
      Pb.metric ~samples:!conns_opened "tcp.retransmits_per_conn" "retx/conn"
        (Pb.ratio !lost_w !conns_opened) ]
  in
  { Pb.ctx = Layers.ctx grid (e.Gridgen.e_shards @ e.Gridgen.e_clients);
    virt_on_host = false;
    parts = [];
    start;
    slice_ns = Engine.Time.ms 10;
    window_complete = (fun () -> !closed);
    finished;
    stuck;
    layer_metrics;
    teardown = (fun () -> ()) }

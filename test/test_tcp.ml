module Bb = Engine.Bytebuf
module Tcp = Drivers.Tcp

let tcp_pair ?(model = Simnet.Presets.ethernet100) ?seed () =
  let net, a, b, seg = Tutil.pair ?seed model in
  (net, a, b, Tcp.attach seg a, Tcp.attach seg b)

(* Echo server helper: accepts on [port] and echoes everything. *)
let echo_server stack ~port =
  Tcp.listen stack ~port (fun conn ->
      Tcp.set_event_cb conn (fun ev ->
          if ev = Tcp.Readable then begin
            let rec drain () =
              match Tcp.read conn ~max:65_536 with
              | Some buf ->
                ignore (Tcp.write conn buf);
                drain ()
              | None -> ()
            in
            drain ()
          end))

let test_connect_establish () =
  let net, _a, b, sa, sb = tcp_pair () in
  let established_client = ref false and established_server = ref false in
  Tcp.listen sb ~port:80 (fun conn ->
      established_server := true;
      Tutil.check_bool "server state" true (Tcp.state conn = Tcp.Established_st));
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  Tcp.set_event_cb c (fun ev ->
      if ev = Tcp.Established then established_client := true);
  Tutil.run_net net;
  Tutil.check_bool "client established" true !established_client;
  Tutil.check_bool "server accepted" true !established_server;
  Tutil.check_bool "client state" true (Tcp.state c = Tcp.Established_st)

let test_connection_refused () =
  let net, _a, b, sa, _sb = tcp_pair () in
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:81 in
  let reset = ref false in
  Tcp.set_event_cb c (fun ev -> if ev = Tcp.Reset then reset := true);
  Tutil.run_net net;
  Tutil.check_bool "RST received" true !reset;
  Tutil.check_bool "closed" true (Tcp.state c = Tcp.Closed_st)

let test_echo_integrity () =
  let net, _a, b, sa, sb = tcp_pair () in
  echo_server sb ~port:80;
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  let msg = Tutil.pattern_buf ~seed:17 100_000 in
  let echoed = Buffer.create 100_000 in
  let pump = ref (fun () -> ()) in
  let sent = ref 0 in
  (pump :=
     fun () ->
       if !sent < Bb.length msg then begin
         let n = Tcp.write c (Bb.sub msg !sent (Bb.length msg - !sent)) in
         sent := !sent + n
       end);
  Tcp.set_event_cb c (fun ev ->
      match ev with
      | Tcp.Established | Tcp.Writable -> !pump ()
      | Tcp.Readable ->
        let rec drain () =
          match Tcp.read c ~max:65_536 with
          | Some buf ->
            Buffer.add_string echoed (Bb.to_string buf);
            drain ()
          | None -> ()
        in
        drain ()
      | _ -> ());
  Tutil.run_net net;
  Tutil.check_int "all echoed" 100_000 (Buffer.length echoed);
  Tutil.check_bool "identical" true
    (Buffer.contents echoed = Bb.to_string msg)

let test_integrity_under_loss () =
  (* A lossy WAN must still deliver a correct byte stream. *)
  let net, _a, b, sa, sb =
    tcp_pair ~model:(Simnet.Presets.transcontinental_loss 0.08) ~seed:3 ()
  in
  let total = 300_000 in
  let received = Buffer.create total in
  Tcp.listen sb ~port:80 (fun conn ->
      Tcp.set_event_cb conn (fun ev ->
          if ev = Tcp.Readable then begin
            let rec drain () =
              match Tcp.read conn ~max:65_536 with
              | Some buf ->
                Buffer.add_string received (Bb.to_string buf);
                drain ()
              | None -> ()
            in
            drain ()
          end));
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  let msg = Tutil.pattern_buf ~seed:23 total in
  let sent = ref 0 in
  let pump () =
    if !sent < total then begin
      let n = Tcp.write c (Bb.sub msg !sent (total - !sent)) in
      sent := !sent + n
    end
  in
  Tcp.set_event_cb c (fun ev ->
      match ev with Tcp.Established | Tcp.Writable -> pump () | _ -> ());
  Tutil.run_net net ~until:(Engine.Time.sec 590);
  Tutil.check_int "all delivered despite loss" total (Buffer.length received);
  Tutil.check_bool "stream identical" true
    (Buffer.contents received = Bb.to_string msg);
  Tutil.check_bool "retransmissions happened" true (Tcp.retransmits c > 0)

let test_fin_eof () =
  let net, _a, b, sa, sb = tcp_pair () in
  let got_eof = ref false in
  let got_data = Buffer.create 16 in
  Tcp.listen sb ~port:80 (fun conn ->
      Tcp.set_event_cb conn (fun ev ->
          match ev with
          | Tcp.Readable ->
            (match Tcp.read conn ~max:100 with
             | Some buf -> Buffer.add_string got_data (Bb.to_string buf)
             | None -> ())
          | Tcp.Peer_closed -> got_eof := true
          | _ -> ()));
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  Tcp.set_event_cb c (fun ev ->
      if ev = Tcp.Established then begin
        ignore (Tcp.write c (Bb.of_string "bye"));
        Tcp.close c
      end);
  Tutil.run_net net;
  Tutil.check_string "data before fin" "bye" (Buffer.contents got_data);
  Tutil.check_bool "peer closed seen" true !got_eof

let test_flow_control_slow_reader () =
  (* Reader never reads: sender must be throttled near the receive buffer
     size, not stream forever. *)
  let net, _a, b, sa, sb = tcp_pair () in
  Tcp.listen sb ~port:80 (fun _conn -> ());
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  let accepted = ref 0 in
  let big = Bb.create 65_536 in
  let pump () =
    let n = ref 1 in
    while !n > 0 do
      n := Tcp.write c big;
      accepted := !accepted + !n
    done
  in
  Tcp.set_event_cb c (fun ev ->
      match ev with Tcp.Established | Tcp.Writable -> pump () | _ -> ());
  Tutil.run_net net ~until:(Engine.Time.sec 30);
  (* Accepted data is bounded by sndbuf + rcvbuf (plus margin). *)
  Tutil.check_bool "sender throttled" true
    (!accepted <= (2 * Tcp.default_bufsize) + 100_000);
  Tutil.check_bool "window closed" true (Tcp.bytes_sent c <= Tcp.default_bufsize + 65_536)

let test_window_reopens () =
  (* Slow reader that eventually drains: everything must arrive. *)
  let net, _a, b, sa, sb = tcp_pair () in
  let total = 600_000 in
  let received = ref 0 in
  let sim = Simnet.Net.sim net in
  Tcp.listen sb ~port:80 (fun conn ->
      (* Read 10 KB every 50 ms regardless of events. *)
      let rec slow_read () =
        (match Tcp.read conn ~max:10_240 with
         | Some buf -> received := !received + Bb.length buf
         | None -> ());
        if !received < total then
          Engine.Sim.after sim 50_000_000 slow_read
      in
      Engine.Sim.after sim 50_000_000 slow_read);
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  let sent = ref 0 in
  let chunk = Bb.create 32_768 in
  let pump () =
    let n = ref 1 in
    while !n > 0 && !sent < total do
      let want = min 32_768 (total - !sent) in
      n := Tcp.write c (Bb.sub chunk 0 want);
      sent := !sent + !n
    done
  in
  Tcp.set_event_cb c (fun ev ->
      match ev with Tcp.Established | Tcp.Writable -> pump () | _ -> ());
  Tutil.run_net net ~until:(Engine.Time.sec 120);
  Tutil.check_int "all delivered through a slow reader" total !received

let test_bidirectional () =
  let net, _a, b, sa, sb = tcp_pair () in
  let to_server = Tutil.pattern_buf ~seed:1 50_000 in
  let to_client = Tutil.pattern_buf ~seed:2 80_000 in
  let server_got = Buffer.create 50_000 in
  let client_got = Buffer.create 80_000 in
  Tcp.listen sb ~port:80 (fun conn ->
      let sent = ref 0 in
      let pump () =
        if !sent < Bb.length to_client then begin
          let n =
            Tcp.write conn (Bb.sub to_client !sent (Bb.length to_client - !sent))
          in
          sent := !sent + n
        end
      in
      pump ();
      Tcp.set_event_cb conn (fun ev ->
          match ev with
          | Tcp.Writable -> pump ()
          | Tcp.Readable ->
            let rec drain () =
              match Tcp.read conn ~max:65_536 with
              | Some buf ->
                Buffer.add_string server_got (Bb.to_string buf);
                drain ()
              | None -> ()
            in
            drain ()
          | _ -> ()));
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  let sent = ref 0 in
  let pump () =
    if !sent < Bb.length to_server then begin
      let n = Tcp.write c (Bb.sub to_server !sent (Bb.length to_server - !sent)) in
      sent := !sent + n
    end
  in
  Tcp.set_event_cb c (fun ev ->
      match ev with
      | Tcp.Established | Tcp.Writable -> pump ()
      | Tcp.Readable ->
        let rec drain () =
          match Tcp.read c ~max:65_536 with
          | Some buf ->
            Buffer.add_string client_got (Bb.to_string buf);
            drain ()
          | None -> ()
        in
        drain ()
      | _ -> ());
  Tutil.run_net net;
  Tutil.check_bool "server received all" true
    (Buffer.contents server_got = Bb.to_string to_server);
  Tutil.check_bool "client received all" true
    (Buffer.contents client_got = Bb.to_string to_client)

let test_two_connections_demux () =
  let net, _a, b, sa, sb = tcp_pair () in
  echo_server sb ~port:80;
  let c1 = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  let c2 = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  let got1 = ref "" and got2 = ref "" in
  let wire c tag got =
    Tcp.set_event_cb c (fun ev ->
        match ev with
        | Tcp.Established -> ignore (Tcp.write c (Bb.of_string tag))
        | Tcp.Readable ->
          (match Tcp.read c ~max:100 with
           | Some buf -> got := !got ^ Bb.to_string buf
           | None -> ())
        | _ -> ())
  in
  wire c1 "first" got1;
  wire c2 "second" got2;
  Tutil.run_net net;
  Tutil.check_string "conn1 echo" "first" !got1;
  Tutil.check_string "conn2 echo" "second" !got2

let test_abort_resets_peer () =
  let net, _a, b, sa, sb = tcp_pair () in
  let server_reset = ref false in
  Tcp.listen sb ~port:80 (fun conn ->
      Tcp.set_event_cb conn (fun ev ->
          if ev = Tcp.Reset then server_reset := true));
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  Tcp.set_event_cb c (fun ev -> if ev = Tcp.Established then Tcp.abort c);
  Tutil.run_net net;
  Tutil.check_bool "peer saw RST" true !server_reset

let test_cwnd_grows () =
  let net, _a, b, sa, sb = tcp_pair ~model:Simnet.Presets.vthd () in
  echo_server sb ~port:80;
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  let initial = ref 0 in
  let big = Bb.create 65_536 in
  let sent = ref 0 in
  let pump () =
    if !sent < 2_000_000 then begin
      let n = Tcp.write c big in
      sent := !sent + n
    end
  in
  Tcp.set_event_cb c (fun ev ->
      match ev with
      | Tcp.Established ->
        initial := Tcp.cwnd c;
        pump ()
      | Tcp.Writable -> pump ()
      | Tcp.Readable -> ignore (Tcp.read c ~max:65_536)
      | _ -> ());
  Tutil.run_net net ~until:(Engine.Time.sec 20);
  Tutil.check_bool "congestion window opened" true (Tcp.cwnd c > !initial * 4)

(* Local ports come from [32768, 60999] and wrap around. 40k connect/close
   cycles run past the end of the range; a port whose connection is still
   in the table is skipped; and the stack still carries data afterwards. *)
let test_ephemeral_wrap () =
  let net, _a, b, sa, sb = tcp_pair () in
  let dst = Simnet.Node.id b in
  let in_range p = p >= 32_768 && p <= 60_999 in
  (* Port 81 has no listener; the loop never runs the network, so [held]
     stays in Syn_sent across the wrap and keeps its port busy. *)
  let held = Tcp.connect sa ~dst ~port:81 in
  let bad = ref 0 and reused_held = ref 0 and wrapped = ref false in
  let last = ref (Tcp.local_port held) in
  for _ = 1 to 40_000 do
    let c = Tcp.connect sa ~dst ~port:81 in
    let p = Tcp.local_port c in
    if not (in_range p) then incr bad;
    if p = Tcp.local_port held then incr reused_held;
    if p < !last then wrapped := true;
    last := p;
    Tcp.close c
  done;
  Tutil.check_bool "held port in range" true (in_range (Tcp.local_port held));
  Tutil.check_int "ports outside [32768, 60999]" 0 !bad;
  Tutil.check_bool "allocation wrapped" true !wrapped;
  Tutil.check_int "live port handed out again" 0 !reused_held;
  Tutil.run_net net;
  Tutil.check_bool "held conn refused" true (Tcp.state held = Tcp.Closed_st);
  echo_server sb ~port:80;
  let c = Tcp.connect sa ~dst ~port:80 in
  Tutil.check_bool "post-wrap port in range" true (in_range (Tcp.local_port c));
  let echoed = Buffer.create 16 in
  Tcp.set_event_cb c (fun ev ->
      match ev with
      | Tcp.Established -> ignore (Tcp.write c (Bb.of_string "after wrap"))
      | Tcp.Readable ->
        (match Tcp.read c ~max:100 with
         | Some buf -> Buffer.add_string echoed (Bb.to_string buf)
         | None -> ())
      | _ -> ());
  Tutil.run_net net;
  Tutil.check_string "data after wrap" "after wrap" (Buffer.contents echoed)

(* With every ephemeral port live towards one (node, port), the next
   active open fails loudly instead of leaving the range. *)
let test_ephemeral_exhausted () =
  let _net, _a, b, sa, _sb = tcp_pair () in
  let dst = Simnet.Node.id b in
  for _ = 32_768 to 60_999 do
    ignore (Tcp.connect sa ~dst ~port:81)
  done;
  (match Tcp.connect sa ~dst ~port:81 with
   | _ -> Alcotest.fail "connect past the ephemeral range succeeded"
   | exception Failure _ -> ());
  (* Another destination port still has the whole range. *)
  Tutil.check_int "other port unaffected" 32_768
    (Tcp.local_port (Tcp.connect sa ~dst ~port:82))

(* Server that appends everything it reads to [into]. *)
let sink_server stack ~port into =
  Tcp.listen stack ~port (fun conn ->
      Tcp.set_event_cb conn (fun ev ->
          if ev = Tcp.Readable then
            let rec drain () =
              match Tcp.read conn ~max:65_536 with
              | Some buf ->
                Buffer.add_string into (Bb.to_string buf);
                drain ()
              | None -> ()
            in
            drain ()))

let concat_string pieces = String.concat "" (List.map Bb.to_string pieces)

(* k sub-MSS pieces in one writev: one data segment (plus its ACK), not k,
   carrying exactly their concatenation. *)
let test_writev_one_segment () =
  let net, _a, b, sa, sb = tcp_pair () in
  let seg = Tcp.segment sa in
  let got = Buffer.create 256 in
  sink_server sb ~port:80 got;
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  Tutil.run_net net;
  Tutil.check_bool "established" true (Tcp.state c = Tcp.Established_st);
  let pieces =
    List.init 10 (fun i -> Tutil.pattern_buf ~seed:i (4 + (i * 7 mod 13)))
  in
  let total = List.fold_left (fun a p -> a + Bb.length p) 0 pieces in
  Tutil.check_bool "sub-MSS run" true (total < Tcp.mss sa);
  let frames0 = Simnet.Segment.frames_sent seg in
  let bytes0 = Simnet.Segment.bytes_sent seg in
  Tutil.check_int "all accepted" total (Tcp.writev c pieces);
  Tutil.run_net net;
  Tutil.check_int "one data segment and its ACK" 2
    (Simnet.Segment.frames_sent seg - frames0);
  let header = (Simnet.Segment.model seg).Simnet.Linkmodel.mtu - Tcp.mss sa in
  Tutil.check_int "wire bytes" (total + (2 * header))
    (Simnet.Segment.bytes_sent seg - bytes0);
  Tutil.check_string "concatenation arrives" (concat_string pieces)
    (Buffer.contents got)

(* A writev larger than the free send buffer accepts exactly a prefix of
   the concatenation, cut inside a piece, and returns its length. *)
let test_writev_partial_prefix () =
  let net, _a, b, sa, sb = tcp_pair () in
  let got = Buffer.create 1024 in
  sink_server sb ~port:80 got;
  let c = Tcp.connect ~sndbuf:1000 sa ~dst:(Simnet.Node.id b) ~port:80 in
  Tutil.run_net net;
  let pieces =
    List.init 5 (fun i ->
        Tutil.pattern_buf ~seed:(10 + i) (if i < 4 then 300 else 50))
  in
  Tutil.check_int "space" 1000 (Tcp.write_space c);
  Tutil.check_int "prefix accepted" 1000 (Tcp.writev c pieces);
  Tutil.check_int "buffer full" 0 (Tcp.write_space c);
  Tutil.check_int "nothing more" 0 (Tcp.writev c pieces);
  Tutil.run_net net;
  Tutil.check_string "exactly the prefix arrives"
    (String.sub (concat_string pieces) 0 1000)
    (Buffer.contents got)

(* A 1000-byte send ring carries 20 KB of odd-sized pieces: the ring wraps
   inside pieces on write and inside segments on transmit, and the byte
   stream still arrives intact. *)
let test_writev_ring_wrap () =
  let net, _a, b, sa, sb = tcp_pair () in
  let got = Buffer.create 20_000 in
  sink_server sb ~port:80 got;
  let c = Tcp.connect ~sndbuf:1000 sa ~dst:(Simnet.Node.id b) ~port:80 in
  let msg = Tutil.pattern_buf ~seed:5 20_000 in
  let sizes = [| 137; 211; 59; 401 |] in
  let sent = ref 0 and k = ref 0 in
  let pump () =
    let continue = ref true in
    while !continue && !sent < Bb.length msg do
      (* Three pieces per call, each cut from the rest of [msg]. *)
      let rec pieces off n acc =
        if n = 0 || off >= Bb.length msg then List.rev acc
        else begin
          let len = min sizes.(!k mod 4) (Bb.length msg - off) in
          incr k;
          pieces (off + len) (n - 1) (Bb.sub msg off len :: acc)
        end
      in
      let n = Tcp.writev c (pieces !sent 3 []) in
      sent := !sent + n;
      continue := n > 0
    done
  in
  Tcp.set_event_cb c (fun ev ->
      match ev with Tcp.Established | Tcp.Writable -> pump () | _ -> ());
  Tutil.run_net net;
  Tutil.check_int "all sent" (Bb.length msg) !sent;
  Tutil.check_bool "stream identical" true
    (Buffer.contents got = Bb.to_string msg)

(* A lost fast retransmission. On a loss-free, jitter-free 8 ms-RTT WAN a
   client writes 36 B every 10 ms; the segment written at 100 ms is
   dropped, and so is its fast retransmission. The heartbeats that keep
   coming produce duplicate ACKs; one arriving more than an RTT bound
   after the resend shows the resend was lost, so the hole is resent
   again at once and no retransmission timeout (200 ms at least) fires. *)
let test_lost_fast_retransmit () =
  let model =
    { Simnet.Presets.vthd with Simnet.Linkmodel.loss = 0.0; jitter_ns = 0 }
  in
  let net, a, b, sa, sb = tcp_pair ~model () in
  let seg = Tcp.segment sa in
  let sim = Simnet.Net.sim net in
  let got = Buffer.create 2048 in
  sink_server sb ~port:80 got;
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  let writes = 40 in
  let msg = Tutil.pattern_buf ~seed:3 (writes * 36) in
  let ms = 1_000_000 in
  let block_for ns =
    Simnet.Segment.block seg a ~peer:(Simnet.Node.id b);
    Simnet.Segment.block seg b ~peer:(Simnet.Node.id a);
    Engine.Sim.after sim ns (fun () -> Simnet.Segment.clear_blocked seg)
  in
  for i = 0 to writes - 1 do
    Engine.Sim.at sim ((20 + (10 * i)) * ms) (fun () ->
        if i = 8 then block_for (ms / 2);
        ignore (Tcp.write c (Bb.sub msg (i * 36) 36)))
  done;
  (* Drop the first fast retransmission: it is emitted after the send
     CPU cost (8 us), so a 2 us poll sees the counter move first. *)
  let fast () = let _, f, _ = Tcp.retransmit_breakdown c in f in
  let rec watch () =
    if fast () >= 1 then block_for (ms / 2)
    else Engine.Sim.after sim 2_000 watch
  in
  Engine.Sim.at sim (101 * ms) watch;
  Tutil.run_net net;
  let rto, fast, _ = Tcp.retransmit_breakdown c in
  Tutil.check_bool "hole resent twice" true (fast >= 2);
  Tutil.check_int "no retransmission timeout" 0 rto;
  Tutil.check_bool "stream identical" true
    (Buffer.contents got = Bb.to_string msg)

(* Every ACK that moves [snd_una] cancels the retransmission timer and
   arms a new one. The cancelled timer must leave the simulator's event
   queue at once, not when its instant passes: after 1 000 connections
   each finish the handshake and one acknowledged request and echo, the
   queue holds no event, 150 ms in — before the 1 s SYN timers or the
   200 ms (at least) retransmission timers they replaced were due. *)
let test_acked_timers_cancelled () =
  let n = 1_000 in
  let net, a, b, sa, sb = tcp_pair () in
  echo_server sb ~port:80;
  let echoed = ref 0 in
  for _ = 1 to n do
    let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
    Tcp.set_event_cb c (function
      | Tcp.Established -> ignore (Tcp.write c (Bb.of_string "ping"))
      | Tcp.Readable ->
        (match Tcp.read c ~max:16 with
         | Some r -> echoed := !echoed + Bb.length r
         | None -> ())
      | _ -> ())
  done;
  Tutil.run_net net ~until:(Engine.Time.ms 150);
  Tutil.check_int "every request echoed" (4 * n) !echoed;
  Tutil.check_bool "one queue for both ends" true
    (Simnet.Node.sim a == Simnet.Node.sim b);
  Tutil.check_int "no timer pending" 0 (Engine.Sim.pending (Simnet.Node.sim a))

let () =
  Alcotest.run "tcp"
    [ ("lifecycle",
       [ Alcotest.test_case "connect/accept" `Quick test_connect_establish;
         Alcotest.test_case "refused" `Quick test_connection_refused;
         Alcotest.test_case "fin/eof" `Quick test_fin_eof;
         Alcotest.test_case "abort/rst" `Quick test_abort_resets_peer;
         Alcotest.test_case "two connections" `Quick
           test_two_connections_demux;
         Alcotest.test_case "ephemeral ports wrap" `Quick test_ephemeral_wrap;
         Alcotest.test_case "acked connections leave no timer pending" `Quick
           test_acked_timers_cancelled;
         Alcotest.test_case "ephemeral ports exhausted" `Quick
           test_ephemeral_exhausted ]);
      ("data",
       [ Alcotest.test_case "echo integrity" `Quick test_echo_integrity;
         Alcotest.test_case "integrity under 8% loss" `Quick
           test_integrity_under_loss;
         Alcotest.test_case "bidirectional" `Quick test_bidirectional;
         Alcotest.test_case "writev: sub-MSS pieces, one segment" `Quick
           test_writev_one_segment;
         Alcotest.test_case "writev: partial accepts a prefix" `Quick
           test_writev_partial_prefix;
         Alcotest.test_case "writev: ring wraps mid-piece" `Quick
           test_writev_ring_wrap;
         Alcotest.test_case "lost fast retransmit: resent before the RTO"
           `Quick test_lost_fast_retransmit ]);
      ("flow-control",
       [ Alcotest.test_case "slow reader throttles" `Quick
           test_flow_control_slow_reader;
         Alcotest.test_case "window reopens" `Quick test_window_reopens;
         Alcotest.test_case "cwnd grows" `Quick test_cwnd_grows ]);
    ]

module Bb = Engine.Bytebuf
module Sim = Engine.Sim
module Seg = Simnet.Segment
module Lm = Simnet.Linkmodel

let mk_model ?(loss = 0.0) ?(latency = 1_000) ?(bw = 1e8) ?(mtu = 1500)
    ?(jitter = 0) ?(turnaround = 0) () =
  { Lm.name = "test"; class_ = Lm.Lan; bandwidth_bps = bw;
    latency_ns = latency; jitter_ns = jitter; loss; mtu; frame_overhead = 0;
    turnaround_ns = turnaround; trusted = true }

let mk_pair ?loss ?latency ?bw ?mtu ?jitter ?turnaround () =
  Tutil.pair (mk_model ?loss ?latency ?bw ?mtu ?jitter ?turnaround ())

let raw ~src ~dst n =
  Simnet.Packet.make ~src ~dst ~proto:99 ~size:n
    (Simnet.Packet.Raw (Bb.create n))

(* ---------- Linkmodel ---------- *)

let test_serialization_time () =
  let m = mk_model ~bw:1e9 () in
  (* 1000 bytes at 1 GB/s = 1000 ns *)
  Tutil.check_int "1000B at 1GB/s" 1_000 (Lm.serialization_ns m 1_000)

let test_frame_overhead_counts () =
  let m = { (mk_model ~bw:1e9 ()) with Lm.frame_overhead = 100 } in
  Tutil.check_int "overhead added" 1_100 (Lm.serialization_ns m 1_000)

(* ---------- Segment delivery ---------- *)

let test_delivery_and_latency () =
  let net, a, b, seg = mk_pair ~latency:5_000 ~bw:1e9 () in
  let arrival = ref 0 in
  Seg.set_handler seg b ~proto:99 (fun _ ->
      arrival := Sim.now (Simnet.Net.sim net));
  Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 1_000);
  Tutil.run_net net;
  (* serialization 1000ns + latency 5000ns *)
  Tutil.check_int "arrival time" 6_000 !arrival;
  Tutil.check_int "delivered" 1 (Seg.frames_delivered seg)

let test_proto_demux () =
  let net, a, b, seg = mk_pair () in
  let got99 = ref 0 and got7 = ref 0 in
  Seg.set_handler seg b ~proto:99 (fun _ -> incr got99);
  Seg.set_handler seg b ~proto:7 (fun _ -> incr got7);
  Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 10);
  Seg.send seg
    (Simnet.Packet.make ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b)
       ~proto:7 ~size:10
       (Simnet.Packet.Raw (Bb.create 10)));
  Tutil.run_net net;
  Tutil.check_int "proto 99" 1 !got99;
  Tutil.check_int "proto 7" 1 !got7

let test_unclaimed_frames_counted () =
  let net, a, b, seg = mk_pair () in
  Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 10);
  Tutil.run_net net;
  Tutil.check_int "unclaimed" 1 (Seg.frames_unclaimed seg);
  Tutil.check_int "not delivered" 0 (Seg.frames_delivered seg)

let test_mtu_enforced () =
  let _net, a, b, seg = mk_pair ~mtu:100 () in
  Alcotest.check_raises "oversized frame"
    (Invalid_argument "Segment test: frame of 101 bytes exceeds MTU 100")
    (fun () ->
       Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 101))

let test_unattached_rejected () =
  let net, a, _b, seg = mk_pair () in
  let c = Simnet.Net.add_node net "c" in
  Alcotest.check_raises "unknown destination"
    (Invalid_argument "Segment test: node 2 not attached (send destination)")
    (fun () -> Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id c) 10))

(* Frame conservation at quiescence, on a one-shard grid and on a segment
   spanning two shards (tx counters on the sender's shard, rx counters on
   the receiver's): every frame sent is fault-dropped, lost, delivered or
   unclaimed. Frame 7 meets a blocked pair; every 50th frame carries a
   protocol nobody handles. *)
let loss_conservation ~shards =
  let net = Simnet.Net.create ~shards () in
  let a = Simnet.Net.add_node net "a" in
  let b = Simnet.Net.add_node ~shard:(shards - 1) net "b" in
  let seg = Simnet.Net.add_segment net (mk_model ~loss:0.3 ()) [ a; b ] in
  let ida = Simnet.Node.id a and idb = Simnet.Node.id b in
  Seg.set_handler seg b ~proto:99 (fun _ -> ());
  let n = 5_000 in
  let rec send_next i =
    if i < n then begin
      let proto = if i mod 50 = 0 then 98 else 99 in
      let pkt =
        Simnet.Packet.make ~src:ida ~dst:idb ~proto ~size:100
          (Simnet.Packet.Raw (Bb.create 100))
      in
      if i = 7 then begin
        Seg.block_pair seg ida idb;
        Seg.send seg pkt;
        Seg.unblock_pair seg ida idb
      end
      else Seg.send seg pkt;
      Sim.after (Simnet.Node.sim a) 10_000 (fun () -> send_next (i + 1))
    end
  in
  Sim.at (Simnet.Node.sim a) 0 (fun () -> send_next 0);
  Tutil.run_net net ~until:(Engine.Time.sec 10);
  let what s = Printf.sprintf "%s (%d shards)" s shards in
  let lost = Seg.frames_lost seg in
  let ratio = float_of_int lost /. float_of_int n in
  Tutil.check_bool (what "loss near 30%") true (ratio > 0.26 && ratio < 0.34);
  Tutil.check_int (what "sent") n (Seg.frames_sent seg);
  Tutil.check_int (what "one fault drop") 1 (Seg.frames_faulted seg);
  Tutil.check_bool (what "some unclaimed") true (Seg.frames_unclaimed seg > 0);
  Tutil.check_int (what "sent = faulted + lost + delivered + unclaimed") n
    (Seg.frames_faulted seg + lost + Seg.frames_delivered seg
     + Seg.frames_unclaimed seg)

let test_loss_statistics () =
  loss_conservation ~shards:1;
  loss_conservation ~shards:2

let test_egress_serializes () =
  (* Two frames sent back-to-back: second arrives one serialization later. *)
  let net, a, b, seg = mk_pair ~latency:0 ~bw:1e9 () in
  let arrivals = ref [] in
  Seg.set_handler seg b ~proto:99 (fun _ ->
      arrivals := Sim.now (Simnet.Net.sim net) :: !arrivals);
  Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 1_000);
  Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 1_000);
  Tutil.run_net net;
  (match List.rev !arrivals with
   | [ t1; t2 ] ->
     Tutil.check_int "first at ser" 1_000 t1;
     Tutil.check_int "second one ser later" 2_000 t2
   | _ -> Alcotest.fail "expected two arrivals")

let test_turnaround_only_back_to_back () =
  let net, a, b, seg = mk_pair ~latency:0 ~bw:1e9 ~turnaround:500 () in
  let arrivals = ref [] in
  Seg.set_handler seg b ~proto:99 (fun _ ->
      arrivals := Sim.now (Simnet.Net.sim net) :: !arrivals);
  (* Isolated frame: no turnaround. *)
  Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 1_000);
  (* Back-to-back second frame pays it. *)
  Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 1_000);
  Tutil.run_net net;
  (match List.rev !arrivals with
   | [ t1; t2 ] ->
     Tutil.check_int "isolated frame pays no gap" 1_000 t1;
     Tutil.check_int "queued frame pays the gap" 2_500 t2
   | _ -> Alcotest.fail "expected two arrivals")

let test_ingress_contention () =
  (* Two senders, one receiver: second frame queues at the input port. *)
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let b = Simnet.Net.add_node net "b" in
  let c = Simnet.Net.add_node net "c" in
  let seg = Simnet.Net.add_segment net (mk_model ~latency:0 ~bw:1e9 ()) [ a; b; c ] in
  let arrivals = ref [] in
  Seg.set_handler seg c ~proto:99 (fun pkt ->
      arrivals := (pkt.Simnet.Packet.src, Sim.now (Simnet.Net.sim net)) :: !arrivals);
  Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id c) 1_000);
  Seg.send seg (raw ~src:(Simnet.Node.id b) ~dst:(Simnet.Node.id c) 1_000);
  Tutil.run_net net;
  (match List.rev !arrivals with
   | [ (_, t1); (_, t2) ] ->
     Tutil.check_int "first uncontended" 1_000 t1;
     Tutil.check_int "second serialized behind" 2_000 t2
   | _ -> Alcotest.fail "expected two arrivals")

(* ---------- Node CPU ---------- *)

let test_cpu_serializes () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let sim = Simnet.Net.sim net in
  let finish = ref [] in
  Simnet.Node.cpu_async a 100 (fun () -> finish := Sim.now sim :: !finish);
  Simnet.Node.cpu_async a 50 (fun () -> finish := Sim.now sim :: !finish);
  Sim.run sim;
  Alcotest.(check (list int)) "queued work" [ 100; 150 ] (List.rev !finish)

let test_cpu_blocking () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let sim = Simnet.Net.sim net in
  let t = ref 0 in
  let h =
    Simnet.Node.spawn a (fun () ->
        Simnet.Node.cpu a 500;
        t := Sim.now sim)
  in
  Sim.run sim;
  Tutil.assert_done h;
  Tutil.check_int "blocked for cost" 500 !t

(* ---------- Net topology ---------- *)

let test_links_between () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let b = Simnet.Net.add_node net "b" in
  let c = Simnet.Net.add_node net "c" in
  let myri = Simnet.Net.add_segment net Simnet.Presets.myrinet2000 [ a; b ] in
  let eth = Simnet.Net.add_segment net Simnet.Presets.ethernet100 [ a; b; c ] in
  let links_ab = Simnet.Net.links_between net a b in
  Tutil.check_int "a-b has two networks" 2 (List.length links_ab);
  Tutil.check_string "fastest first" (Seg.name myri)
    (Seg.name (List.hd links_ab));
  let links_ac = Simnet.Net.links_between net a c in
  Tutil.check_int "a-c only ethernet" 1 (List.length links_ac);
  Tutil.check_string "ethernet" (Seg.name eth) (Seg.name (List.hd links_ac));
  (match Simnet.Net.best_link net a b with
   | Some s -> Tutil.check_string "best is myrinet" (Seg.name myri) (Seg.name s)
   | None -> Alcotest.fail "expected a link")

let test_loopback_automatic () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  match Simnet.Net.links_between net a a with
  | [ lo ] ->
    Tutil.check_bool "loopback class" true
      ((Seg.model lo).Lm.class_ = Lm.Loop)
  | _ -> Alcotest.fail "expected exactly the loopback"

let test_node_by_id () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  Tutil.check_bool "found" true
    (match Simnet.Net.node_by_id net (Simnet.Node.id a) with
     | Some n -> n == a
     | None -> false);
  Tutil.check_bool "missing" true
    (Simnet.Net.node_by_id net 999 = None)

(* ---------- Presets sanity ---------- *)

let test_presets_sane () =
  let check_model m =
    Tutil.check_bool (m.Lm.name ^ " bandwidth positive") true
      (m.Lm.bandwidth_bps > 0.0);
    Tutil.check_bool (m.Lm.name ^ " loss in [0,1)") true
      (m.Lm.loss >= 0.0 && m.Lm.loss < 1.0);
    Tutil.check_bool (m.Lm.name ^ " mtu positive") true (m.Lm.mtu > 0)
  in
  List.iter check_model
    [ Simnet.Presets.myrinet2000; Simnet.Presets.sci;
      Simnet.Presets.ethernet100; Simnet.Presets.gigabit_lan;
      Simnet.Presets.vthd; Simnet.Presets.transcontinental;
      Simnet.Presets.modem; Simnet.Presets.loopback ];
  Tutil.check_bool "myrinet trusted SAN" true
    (Simnet.Presets.myrinet2000.Lm.trusted
     && Simnet.Presets.myrinet2000.Lm.class_ = Lm.San);
  Tutil.check_bool "transcontinental untrusted lossy" true
    ((not Simnet.Presets.transcontinental.Lm.trusted)
     && Simnet.Presets.transcontinental.Lm.class_ = Lm.Lossy_wan)

let () =
  Alcotest.run "simnet"
    [ ("linkmodel",
       [ Alcotest.test_case "serialization" `Quick test_serialization_time;
         Alcotest.test_case "frame overhead" `Quick test_frame_overhead_counts
       ]);
      ("segment",
       [ Alcotest.test_case "delivery+latency" `Quick test_delivery_and_latency;
         Alcotest.test_case "proto demux" `Quick test_proto_demux;
         Alcotest.test_case "unclaimed" `Quick test_unclaimed_frames_counted;
         Alcotest.test_case "mtu" `Quick test_mtu_enforced;
         Alcotest.test_case "unattached" `Quick test_unattached_rejected;
         Alcotest.test_case "loss stats" `Quick test_loss_statistics;
         Alcotest.test_case "egress serializes" `Quick test_egress_serializes;
         Alcotest.test_case "turnaround gap" `Quick
           test_turnaround_only_back_to_back;
         Alcotest.test_case "ingress contention" `Quick test_ingress_contention
       ]);
      ("node",
       [ Alcotest.test_case "cpu queue" `Quick test_cpu_serializes;
         Alcotest.test_case "cpu blocking" `Quick test_cpu_blocking ]);
      ("net",
       [ Alcotest.test_case "links_between" `Quick test_links_between;
         Alcotest.test_case "loopback" `Quick test_loopback_automatic;
         Alcotest.test_case "node_by_id" `Quick test_node_by_id ]);
      ("presets", [ Alcotest.test_case "sanity" `Quick test_presets_sane ]);
    ]

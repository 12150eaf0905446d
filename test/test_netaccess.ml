module Bb = Engine.Bytebuf
module Mad = Madeleine.Mad
module Madio = Netaccess.Madio
module Sysio = Netaccess.Sysio
module Na = Netaccess.Na_core
module Tcp = Drivers.Tcp

let madio_pair () =
  let net, a, b, seg = Tutil.pair Simnet.Presets.myrinet2000 in
  (net, a, b, Madio.init (Mad.init seg a), Madio.init (Mad.init seg b))

(* ---------- MadIO ---------- *)

let test_many_logical_channels () =
  (* The point of MadIO: 2 hardware channels, arbitrarily many logical. *)
  let net, _a, b, ma, mb = madio_pair () in
  let n = 50 in
  let received = Array.make n 0 in
  for i = 0 to n - 1 do
    let lc = Madio.open_lchannel mb ~id:i in
    Madio.set_recv lc (fun ~src:_ buf ->
        received.(Bb.get_u8 buf 0) <- received.(Bb.get_u8 buf 0) + 1)
  done;
  Tutil.check_int "all open" n (Madio.lchannels_open mb);
  for i = 0 to n - 1 do
    let lc = Madio.open_lchannel ma ~id:i in
    let msg = Bb.create 4 in
    Bb.set_u8 msg 0 i;
    Madio.send lc ~dst:(Simnet.Node.id b) msg
  done;
  Tutil.run_net net;
  Array.iteri
    (fun i c -> Tutil.check_int (Printf.sprintf "channel %d" i) 1 c)
    received

let test_combined_and_separate_headers_both_deliver () =
  let deliver combining =
    let net, _a, b, ma, mb = madio_pair () in
    Madio.set_header_combining ma combining;
    let la = Madio.open_lchannel ma ~id:3 in
    let lb = Madio.open_lchannel mb ~id:3 in
    let msg = Tutil.pattern_buf ~seed:9 5_000 in
    let ok = ref false in
    Madio.set_recv lb (fun ~src buf -> ok := src = 0 && Bb.equal buf msg);
    Madio.send la ~dst:(Simnet.Node.id b) msg;
    Tutil.run_net net;
    !ok
  in
  Tutil.check_bool "combined" true (deliver true);
  Tutil.check_bool "separate (ablation)" true (deliver false)

let test_combining_uses_fewer_messages () =
  let wire_messages combining =
    let net, a, b, ma, mb = madio_pair () in
    Madio.set_header_combining ma combining;
    let la = Madio.open_lchannel ma ~id:1 in
    let lb = Madio.open_lchannel mb ~id:1 in
    Madio.set_recv lb (fun ~src:_ _ -> ());
    for _ = 1 to 10 do
      Madio.send la ~dst:(Simnet.Node.id b) (Bb.create 32)
    done;
    Tutil.run_net net;
    let seg = List.hd (Simnet.Net.links_between net a b) in
    Simnet.Segment.frames_sent seg
  in
  let combined = wire_messages true in
  let separate = wire_messages false in
  Tutil.check_bool "separate mode sends twice the frames" true
    (separate >= 2 * combined)

let test_sendv_iovec () =
  let net, _a, b, ma, mb = madio_pair () in
  let la = Madio.open_lchannel ma ~id:2 in
  let lb = Madio.open_lchannel mb ~id:2 in
  let p1 = Tutil.pattern_buf ~seed:1 100 in
  let p2 = Tutil.pattern_buf ~seed:2 200 in
  let ok = ref false in
  Madio.set_recv lb (fun ~src:_ buf -> ok := Bb.equal buf (Bb.concat [ p1; p2 ]));
  Madio.sendv la ~dst:(Simnet.Node.id b) [ p1; p2 ];
  Tutil.run_net net;
  Tutil.check_bool "iovec gathered" true !ok

let test_lchannel_reuse_rejected () =
  let _net, _a, _b, ma, _mb = madio_pair () in
  let _l = Madio.open_lchannel ma ~id:5 in
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Madio.open_lchannel: channel 5 already open") (fun () ->
      ignore (Madio.open_lchannel ma ~id:5))

(* ---------- Na_core ---------- *)

let test_dispatcher_runs_posted_work () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let core = Na.get a in
  let ran = ref [] in
  Na.post core Na.Madio_work (fun () -> ran := `M :: !ran);
  Na.post core Na.Sysio_work (fun () -> ran := `S :: !ran);
  Tutil.run_net net;
  Tutil.check_int "both dispatched" 2 (List.length !ran);
  Tutil.check_int "madio count" 1 (Na.dispatched core Na.Madio_work);
  Tutil.check_int "sysio count" 1 (Na.dispatched core Na.Sysio_work)

let test_dispatcher_policy_validation () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let core = Na.get a in
  Alcotest.check_raises "bad madio quantum"
    (Invalid_argument "Na_core.set_quanta: quanta must be >= 1") (fun () ->
      Na.set_quanta core { Na.madio_quantum = 0; sysio_quantum = 1 });
  Alcotest.check_raises "bad sysio quantum"
    (Invalid_argument "Na_core.set_quanta: quanta must be >= 1") (fun () ->
      Na.set_quanta core { Na.madio_quantum = 1; sysio_quantum = 0 });
  Tutil.check_int "rejected quanta leave the default" 4
    (Na.quanta core).Na.madio_quantum

(* A source unregistered while queued must leave the ready list without
   costing the dispatcher a poll. *)
let test_dead_ready_source_uncharged () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let core = Na.get a in
  let drained = ref 0 in
  let src = Na.register_source core () ~drain:(fun () -> incr drained) in
  Na.mark_ready core src;
  Na.unregister_source core src;
  Tutil.run_net net;
  Tutil.check_int "dead source not drained" 0 !drained;
  Tutil.check_int "ready_drains" 0 (Na.ready_drains core);
  Tutil.check_int "ready_polls" 0 (Na.ready_polls core);
  Tutil.check_int "ready list emptied" 0 (Na.ready_depth core);
  Tutil.check_int "no cpu charged" 0 (Simnet.Node.cpu_busy_until a)

let test_dispatcher_survives_exceptions () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let core = Na.get a in
  let ran = ref false in
  Na.post core Na.Madio_work (fun () -> failwith "handler bug");
  Na.post core Na.Madio_work (fun () -> ran := true);
  Tutil.run_net net;
  Tutil.check_bool "later work still runs" true !ran

let test_policy_interleaving () =
  (* With quanta (1, 4), a backlog of both kinds should dispatch roughly
     1:4 over the first rounds. *)
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let core = Na.get a in
  Na.set_quanta core { Na.madio_quantum = 1; sysio_quantum = 4 };
  let order = ref [] in
  for _ = 1 to 8 do
    Na.post core Na.Madio_work (fun () -> order := `M :: !order)
  done;
  for _ = 1 to 8 do
    Na.post core Na.Sysio_work (fun () -> order := `S :: !order)
  done;
  Tutil.run_net net;
  (* First round: 1 M then 4 S. *)
  (match List.rev !order with
   | `M :: `S :: `S :: `S :: `S :: `M :: _ -> ()
   | _ -> Alcotest.fail "unexpected interleaving");
  Tutil.check_int "all dispatched" 16 (List.length !order)

(* ---------- SysIO ---------- *)

let test_sysio_connect_listen () =
  let net, a, b, seg = Tutil.pair Simnet.Presets.ethernet100 in
  let sa = Sysio.get a and sb = Sysio.get b in
  let stack_a = Sysio.stack_on sa seg in
  let stack_b = Sysio.stack_on sb seg in
  let server_got = ref "" in
  Sysio.listen sb stack_b ~port:80 (fun conn ->
      Sysio.watch sb conn (fun ev ->
          if ev = Tcp.Readable then
            match Sysio.read conn ~max:100 with
            | Some buf -> server_got := !server_got ^ Bb.to_string buf
            | None -> ()));
  let established = ref false in
  let conn =
    Sysio.connect sa stack_a ~dst:(Simnet.Node.id b) ~port:80 (fun conn ev ->
        if ev = Tcp.Established then begin
          established := true;
          ignore (Sysio.write conn (Bb.of_string "hello"))
        end)
  in
  ignore conn;
  Tutil.run_net net;
  Tutil.check_bool "established through dispatcher" true !established;
  Tutil.check_string "data through dispatcher" "hello" !server_got;
  Tutil.check_bool "events were dispatched" true (Sysio.events_dispatched sb > 0)

let () =
  Alcotest.run "netaccess"
    [ ("madio",
       [ Alcotest.test_case "many logical channels" `Quick
           test_many_logical_channels;
         Alcotest.test_case "combined+separate deliver" `Quick
           test_combined_and_separate_headers_both_deliver;
         Alcotest.test_case "combining halves frames" `Quick
           test_combining_uses_fewer_messages;
         Alcotest.test_case "sendv iovec" `Quick test_sendv_iovec;
         Alcotest.test_case "duplicate lchannel" `Quick
           test_lchannel_reuse_rejected ]);
      ("core",
       [ Alcotest.test_case "dispatch" `Quick test_dispatcher_runs_posted_work;
         Alcotest.test_case "policy validation" `Quick
           test_dispatcher_policy_validation;
         Alcotest.test_case "dead ready source pays no poll" `Quick
           test_dead_ready_source_uncharged;
         Alcotest.test_case "exception isolation" `Quick
           test_dispatcher_survives_exceptions;
         Alcotest.test_case "interleaving policy" `Quick
           test_policy_interleaving ]);
      ("sysio",
       [ Alcotest.test_case "connect/listen/watch" `Quick
           test_sysio_connect_listen ]);
    ]

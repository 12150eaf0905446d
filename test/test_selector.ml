module Sel = Selector
module Prefs = Selector.Prefs
module Lm = Simnet.Linkmodel

let choice ?prefs net ~src ~dst = Sel.choose ?prefs net ~src ~dst

let has_adoc c =
  List.exists (function Sel.Adoc _ -> true | Sel.Cipher _ -> false) c.Sel.filters

let has_cipher c =
  List.exists (function Sel.Cipher _ -> true | Sel.Adoc _ -> false) c.Sel.filters

let test_same_node_loopback () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let c = choice net ~src:a ~dst:a in
  Tutil.check_string "loopback" "loopback" c.Sel.driver

let test_san_wins_over_faster_lan () =
  (* SAN preferred even when another segment has equal/higher bandwidth:
     the parallel-specific properties matter, not just the rate. *)
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let b = Simnet.Net.add_node net "b" in
  ignore (Simnet.Net.add_segment net Simnet.Presets.sci [ a; b ]);
  ignore (Simnet.Net.add_segment net Simnet.Presets.gigabit_lan [ a; b ]);
  let c = choice net ~src:a ~dst:b in
  Tutil.check_string "madio on SCI" "madio" c.Sel.driver;
  (match c.Sel.segment with
   | Some s -> Tutil.check_string "SCI segment" "SCI" (Simnet.Segment.name s)
   | None -> Alcotest.fail "expected a segment")

let test_lan_plain_sysio () =
  let net, a, b, _ = Tutil.pair Simnet.Presets.ethernet100 in
  let c = choice net ~src:a ~dst:b in
  Tutil.check_string "sysio" "sysio" c.Sel.driver;
  Tutil.check_bool "no wraps on a trusted LAN" true
    (c.Sel.filters = [])

let test_wan_pstream_when_enabled () =
  let net, a, b, _ = Tutil.pair Simnet.Presets.vthd in
  let c = choice net ~src:a ~dst:b in
  Tutil.check_string "plain prefs: sysio" "sysio" c.Sel.driver;
  Tutil.check_bool "untrusted gets cipher" true (has_cipher c);
  let c =
    choice
      ~prefs:{ Prefs.default with Prefs.pstream_on_wan = true; pstream_streams = 6 }
      net ~src:a ~dst:b
  in
  Tutil.check_string "pstream" "pstream" c.Sel.driver;
  Tutil.check_int "stream count" 6 c.Sel.streams

let test_lossy_vrp_when_enabled () =
  let net, a, b, _ = Tutil.pair Simnet.Presets.transcontinental in
  let c =
    choice
      ~prefs:{ Prefs.default with Prefs.vrp_on_lossy = true; vrp_tolerance = 0.2 }
      net ~src:a ~dst:b
  in
  Tutil.check_string "vrp" "vrp" c.Sel.driver;
  Alcotest.(check (float 1e-9)) "tolerance" 0.2 c.Sel.vrp_tolerance

let test_adoc_on_slow_links_only () =
  let prefs =
    { Prefs.default with Prefs.adoc_on_slow = true; adoc_threshold_bps = 1e6;
      cipher_untrusted = false }
  in
  let net, a, b, _ = Tutil.pair Simnet.Presets.modem in
  let c = choice ~prefs net ~src:a ~dst:b in
  Tutil.check_bool "modem gets adoc" true (has_adoc c);
  let net, a, b, _ = Tutil.pair Simnet.Presets.ethernet100 in
  let c = choice ~prefs net ~src:a ~dst:b in
  Tutil.check_bool "fast LAN does not" false (has_adoc c)

let test_security_adaptation () =
  (* "if the network is secure, it is useless to cipher data" *)
  let net, a, b, _ = Tutil.pair Simnet.Presets.ethernet100 in
  let c = choice net ~src:a ~dst:b in
  Tutil.check_bool "trusted: no cipher" false (has_cipher c);
  let net, a, b, _ = Tutil.pair Simnet.Presets.vthd in
  let c = choice net ~src:a ~dst:b in
  Tutil.check_bool "untrusted: cipher" true (has_cipher c);
  let c =
    choice ~prefs:{ Prefs.default with Prefs.cipher_untrusted = false } net
      ~src:a ~dst:b
  in
  Tutil.check_bool "disabled by prefs" false (has_cipher c)

(* The wrap decision is made once for both ends: on every preset, under
   every preference set, the accepted descriptor stacks what the
   connector stacked. *)
let test_accept_matches_connect () =
  let presets =
    Simnet.Presets.
      [ myrinet2000; ethernet100; vthd; transcontinental; modem ]
  in
  List.iter
    (fun (pname, prefs) ->
       List.iter
         (fun model ->
            let grid, a, b, _ = Tutil.grid_pair ~prefs model in
            let accepted = ref "none" and dialled = ref "none" in
            Padico.listen grid b ~port:5000 (fun vl ->
                accepted := Vlink.Vl.driver_name vl);
            let h =
              Padico.spawn grid a ~name:"dial" (fun () ->
                  let vl = Padico.connect grid ~src:a ~dst:b ~port:5000 in
                  (match Vlink.Vl.await_connected vl with
                   | Ok () -> ()
                   | Error e -> failwith e);
                  dialled := Vlink.Vl.driver_name vl;
                  (* Data, then close: VRP's server side appears with its
                     first datagram, which its pacer flushes on close. *)
                  ignore
                    (Vlink.Vl.await
                       (Vlink.Vl.post_write vl (Engine.Bytebuf.create 4_096)));
                  Vlink.Vl.close vl)
            in
            Tutil.run_grid ~until:(Engine.Time.sec 60) grid;
            Tutil.assert_done h;
            Tutil.check_string
              (Printf.sprintf "%s over %s" pname model.Lm.name)
              !dialled !accepted)
         presets)
    [ ("default", Prefs.default); ("wan_optimized", Prefs.wan_optimized);
      ("bare", Padico_check.Conform.bare_prefs) ]

let test_no_common_network_fails () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let b = Simnet.Net.add_node net "b" in
  ignore (Simnet.Net.add_segment net Simnet.Presets.ethernet100 [ a ]);
  Tutil.check_bool "failure" true
    (try
       ignore (choice net ~src:a ~dst:b);
       false
     with Failure _ -> true)

let test_wan_optimized_preset () =
  let p = Prefs.wan_optimized in
  Tutil.check_bool "pstream on" true p.Prefs.pstream_on_wan;
  Tutil.check_bool "adoc on" true p.Prefs.adoc_on_slow;
  Tutil.check_bool "vrp on" true p.Prefs.vrp_on_lossy

let () =
  Alcotest.run "selector"
    [ ("choices",
       [ Alcotest.test_case "same node" `Quick test_same_node_loopback;
         Alcotest.test_case "SAN preferred" `Quick test_san_wins_over_faster_lan;
         Alcotest.test_case "LAN sysio" `Quick test_lan_plain_sysio;
         Alcotest.test_case "WAN pstream" `Quick test_wan_pstream_when_enabled;
         Alcotest.test_case "lossy VRP" `Quick test_lossy_vrp_when_enabled;
         Alcotest.test_case "adoc threshold" `Quick
           test_adoc_on_slow_links_only;
         Alcotest.test_case "security adaptation" `Quick
           test_security_adaptation;
         Alcotest.test_case "accepted stack = connector's" `Quick
           test_accept_matches_connect;
         Alcotest.test_case "no common network" `Quick
           test_no_common_network_fails;
         Alcotest.test_case "wan_optimized preset" `Quick
           test_wan_optimized_preset ]);
    ]

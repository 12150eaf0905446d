module Bb = Engine.Bytebuf
module Gm = Drivers.Gm
module Udp = Drivers.Udp

(* ---------- GM ---------- *)

let gm_pair () =
  let net, a, b, seg = Tutil.pair Simnet.Presets.myrinet2000 in
  (net, a, b, seg, Gm.attach seg a, Gm.attach seg b)

let test_gm_channel_budget () =
  let _net, _a, _b, _seg, pa, _pb = gm_pair () in
  Tutil.check_int "myrinet budget" 2 (Gm.max_channels pa);
  let _c0 = Gm.open_channel pa ~id:0 in
  let _c1 = Gm.open_channel pa ~id:1 in
  Tutil.check_int "in use" 2 (Gm.channels_in_use pa);
  Alcotest.check_raises "third channel refused" Gm.No_channel_left (fun () ->
      ignore (Gm.open_channel pa ~id:2))

let test_gm_sci_budget () =
  let _net, a, _b, seg = Tutil.pair Simnet.Presets.sci in
  let p = Gm.attach seg a in
  Tutil.check_int "sci budget" 1 (Gm.max_channels p)

let test_gm_requires_san () =
  let _net, a, _b, seg = Tutil.pair Simnet.Presets.ethernet100 in
  Alcotest.check_raises "no GM on ethernet"
    (Invalid_argument "Gm.attach: GM requires a SAN or loopback segment")
    (fun () -> ignore (Gm.attach seg a))

let test_gm_reopen_after_close () =
  let _net, _a, _b, _seg, pa, _pb = gm_pair () in
  let c0 = Gm.open_channel pa ~id:0 in
  Gm.close_channel c0;
  let c0' = Gm.open_channel pa ~id:0 in
  Tutil.check_int "reopened" 0 (Gm.channel_id c0')

let test_gm_roundtrip_small () =
  let net, _a, b, _seg, pa, pb = gm_pair () in
  let ca = Gm.open_channel pa ~id:0 in
  let cb = Gm.open_channel pb ~id:0 in
  let got = ref None in
  Gm.set_recv cb (fun ~src buf -> got := Some (src, buf));
  let msg = Tutil.pattern_buf ~seed:5 100 in
  Gm.send ca ~dst:(Simnet.Node.id b) msg;
  Tutil.run_net net;
  match !got with
  | Some (src, buf) ->
    Tutil.check_int "source" 0 src;
    Tutil.check_bool "payload identical" true (Bb.equal msg buf)
  | None -> Alcotest.fail "message not delivered"

let test_gm_fragmentation_integrity () =
  (* 100 KB > 32 KB MTU: fragmented and reassembled by DMA. *)
  let net, _a, b, _seg, pa, pb = gm_pair () in
  let ca = Gm.open_channel pa ~id:0 in
  let cb = Gm.open_channel pb ~id:0 in
  let got = ref None in
  Gm.set_recv cb (fun ~src:_ buf -> got := Some buf);
  let msg = Tutil.pattern_buf ~seed:11 100_000 in
  Bb.reset_copy_counter ();
  Gm.send ca ~dst:(Simnet.Node.id b) msg;
  Tutil.run_net net;
  (match !got with
   | Some buf ->
     Tutil.check_int "length" 100_000 (Bb.length buf);
     Tutil.check_bool "content" true (Bb.equal msg buf)
   | None -> Alcotest.fail "message not delivered");
  Tutil.check_int "zero-copy path (DMA only)" 0 (Bb.copies_performed ())

let test_gm_ordering () =
  let net, _a, b, _seg, pa, pb = gm_pair () in
  let ca = Gm.open_channel pa ~id:0 in
  let cb = Gm.open_channel pb ~id:0 in
  let order = ref [] in
  Gm.set_recv cb (fun ~src:_ buf -> order := Bb.get_u8 buf 0 :: !order);
  for i = 1 to 10 do
    let m = Bb.create 10 in
    Bb.set_u8 m 0 i;
    Gm.send ca ~dst:(Simnet.Node.id b) m
  done;
  Tutil.run_net net;
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !order)

let test_gm_channel_isolation () =
  let net, _a, b, _seg, pa, pb = gm_pair () in
  let ca0 = Gm.open_channel pa ~id:0 in
  let ca1 = Gm.open_channel pa ~id:1 in
  let cb0 = Gm.open_channel pb ~id:0 in
  let cb1 = Gm.open_channel pb ~id:1 in
  let on0 = ref 0 and on1 = ref 0 in
  Gm.set_recv cb0 (fun ~src:_ _ -> incr on0);
  Gm.set_recv cb1 (fun ~src:_ _ -> incr on1);
  Gm.send ca0 ~dst:(Simnet.Node.id b) (Bb.create 4);
  Gm.send ca1 ~dst:(Simnet.Node.id b) (Bb.create 4);
  Gm.send ca1 ~dst:(Simnet.Node.id b) (Bb.create 4);
  Tutil.run_net net;
  Tutil.check_int "channel 0" 1 !on0;
  Tutil.check_int "channel 1" 2 !on1

let test_gm_sendv_gather () =
  let net, _a, b, _seg, pa, pb = gm_pair () in
  let ca = Gm.open_channel pa ~id:0 in
  let cb = Gm.open_channel pb ~id:0 in
  let got = ref None in
  Gm.set_recv cb (fun ~src:_ buf -> got := Some buf);
  let p1 = Tutil.pattern_buf ~seed:1 10 in
  let p2 = Tutil.pattern_buf ~seed:2 50_000 in
  let p3 = Tutil.pattern_buf ~seed:3 7 in
  Gm.sendv ca ~dst:(Simnet.Node.id b) [ p1; p2; p3 ];
  Tutil.run_net net;
  match !got with
  | Some buf ->
    Tutil.check_bool "gathered equals concat" true
      (Bb.equal buf (Bb.concat [ p1; p2; p3 ]))
  | None -> Alcotest.fail "not delivered"

(* A single-fragment frame that is a view of the sender's buffer is
   copied into a buffer of the receiver's; one that GM gathered is handed
   up as it is. Either way the receiver's bytes are its own: the sender
   may overwrite what it sent. *)
let test_gm_single_fragment_view_copied () =
  let net, _a, b, _seg, pa, pb = gm_pair () in
  let ca = Gm.open_channel pa ~id:0 in
  let cb = Gm.open_channel pb ~id:0 in
  let got = ref [] in
  Gm.set_recv cb (fun ~src:_ buf -> got := buf :: !got);
  let msg = Tutil.pattern_buf ~seed:21 300 in
  let p1 = Tutil.pattern_buf ~seed:22 10 and p2 = Tutil.pattern_buf ~seed:23 90 in
  let want_view = Bb.to_string msg in
  let want_gather = Bb.to_string p1 ^ Bb.to_string p2 in
  Gm.send ca ~dst:(Simnet.Node.id b) msg;
  Gm.sendv ca ~dst:(Simnet.Node.id b) [ p1; p2 ];
  Tutil.run_net net;
  List.iter (fun buf -> Bb.fill_pattern buf ~seed:0) [ msg; p1; p2 ];
  match List.rev !got with
  | [ view; gathered ] ->
    Tutil.check_string "view copied" want_view (Bb.to_string view);
    Tutil.check_string "gathered kept" want_gather (Bb.to_string gathered)
  | l -> Alcotest.failf "%d messages delivered, expected 2" (List.length l)

(* MadIO packs its header in a pooled slab and releases it at send
   completion, when GM has gathered the frame. The next header reuses the
   slab; no message, delivered or in flight, may change. Checked through
   GM directly, then through MadIO with messages sent back to back, so
   the slab is rewritten while the earlier frames are on the wire. *)
let test_gm_pooled_header_reuse () =
  let net, _a, b, _seg, pa, pb = gm_pair () in
  let ca = Gm.open_channel pa ~id:0 in
  let cb = Gm.open_channel pb ~id:0 in
  let got = ref None in
  Gm.set_recv cb (fun ~src:_ buf -> got := Some buf);
  let hdr = Bb.Pool.alloc 14 in
  Bb.fill_pattern hdr ~seed:31;
  let payload = Tutil.pattern_buf ~seed:32 200 in
  let want = Bb.to_string hdr ^ Bb.to_string payload in
  Gm.sendv ca ~dst:(Simnet.Node.id b) [ hdr; payload ];
  Tutil.run_net net;
  Bb.Pool.release hdr;
  let hdr' = Bb.Pool.alloc 14 in
  Tutil.check_bool "slab reused" true (hdr'.Bb.data == hdr.Bb.data);
  Bb.fill_pattern hdr' ~seed:33;
  (match !got with
   | Some buf -> Tutil.check_string "GM frame intact" want (Bb.to_string buf)
   | None -> Alcotest.fail "GM frame not delivered");
  let net, a, b, seg = Tutil.pair Simnet.Presets.myrinet2000 in
  let ma = Netaccess.Madio.init (Madeleine.Mad.init seg a) in
  let mb = Netaccess.Madio.init (Madeleine.Mad.init seg b) in
  let la = Netaccess.Madio.open_lchannel ma ~id:3 in
  let lb = Netaccess.Madio.open_lchannel mb ~id:3 in
  let got = ref [] in
  Netaccess.Madio.set_recv lb (fun ~src:_ buf -> got := buf :: !got);
  let msgs = List.init 4 (fun i -> Tutil.pattern_buf ~seed:(40 + i) (50 + i)) in
  let wants = List.map Bb.to_string msgs in
  let hits0 = Bb.Pool.pool_hits () in
  List.iter (fun m -> Netaccess.Madio.send la ~dst:(Simnet.Node.id b) m) msgs;
  Tutil.run_net net;
  Tutil.check_bool "header slab reused" true (Bb.Pool.pool_hits () > hits0);
  Alcotest.(check (list string)) "MadIO messages intact" wants
    (List.rev_map Bb.to_string !got)

let prop_gm_any_size_roundtrip =
  QCheck.Test.make ~name:"GM delivers any size intact" ~count:30
    QCheck.(int_range 0 200_000)
    (fun n ->
       let net, _a, b, _seg, pa, pb = gm_pair () in
       let ca = Gm.open_channel pa ~id:0 in
       let cb = Gm.open_channel pb ~id:0 in
       let ok = ref false in
       let msg = Tutil.pattern_buf ~seed:n n in
       Gm.set_recv cb (fun ~src:_ buf -> ok := Bb.equal msg buf);
       Gm.send ca ~dst:(Simnet.Node.id b) msg;
       Tutil.run_net net;
       !ok)

(* Every buffer that skips the zero fill ([Bytebuf.concat] and [copy],
   GM's single-fragment copy, reassembly buffer and gather,
   [Streamq.pop_exact]) must come out byte for byte equal to a reference
   built from strings. Payload bytes are never zero, so a skipped tail
   shows even in memory that happens to be zeroed. *)
let prop_uninit_allocations_match_reference =
  let parts =
    QCheck.make
      ~print:(fun l ->
          String.concat "," (List.map (fun s -> string_of_int (String.length s)) l))
      QCheck.Gen.(
        list_size (1 -- 5)
          (string_size
             ~gen:(map Char.chr (1 -- 255))
             (oneof [ 0 -- 64; 0 -- 40_000 ])))
  in
  QCheck.Test.make ~name:"uninitialised allocations match a byte-wise reference"
    ~count:60 parts (fun strs ->
        let want = String.concat "" strs in
        (* Slices at an offset into a larger buffer, as on the data path. *)
        let slices =
          List.map
            (fun s -> Bb.sub (Bb.of_string ("#" ^ s)) 1 (String.length s))
            strs
        in
        let concat_ok = Bb.to_string (Bb.concat slices) = want in
        let copy_ok =
          List.for_all2 (fun s b -> Bb.to_string (Bb.copy b) = s) strs slices
        in
        let q = Vlink.Streamq.create () in
        List.iter (Vlink.Streamq.push q) slices;
        let half = String.length want / 2 in
        let first = Bb.to_string (Vlink.Streamq.pop_exact q half) in
        let rest =
          Bb.to_string (Vlink.Streamq.pop_exact q (String.length want - half))
        in
        let streamq_ok = first ^ rest = want in
        (* GM: the whole list gathered (several fragments past 32 KB), and
           each piece alone as a view of the sender's buffer. *)
        let net, _a, b, _seg, pa, pb = gm_pair () in
        let ca = Gm.open_channel pa ~id:0 and cb = Gm.open_channel pb ~id:0 in
        let got = ref [] in
        Gm.set_recv cb (fun ~src:_ buf -> got := Bb.to_string buf :: !got);
        let dst = Simnet.Node.id b in
        Gm.sendv ca ~dst slices;
        List.iter (Gm.send ca ~dst) slices;
        Tutil.run_net net;
        let gm_ok = List.rev !got = want :: strs in
        concat_ok && copy_ok && streamq_ok && gm_ok)

(* ---------- UDP ---------- *)

let udp_pair ?(model = Simnet.Presets.ethernet100) () =
  let net, a, b, seg = Tutil.pair model in
  (net, a, b, Udp.attach seg a, Udp.attach seg b)

let test_udp_roundtrip () =
  let net, _a, b, ua, ub = udp_pair () in
  let got = ref None in
  Udp.bind ub ~port:53 (fun ~src ~src_port buf ->
      got := Some (src, src_port, buf));
  let msg = Tutil.pattern_buf ~seed:4 512 in
  Udp.sendto ua ~dst:(Simnet.Node.id b) ~dst_port:53 ~src_port:1000 msg;
  Tutil.run_net net;
  match !got with
  | Some (src, sport, buf) ->
    Tutil.check_int "src" 0 src;
    Tutil.check_int "sport" 1000 sport;
    Tutil.check_bool "payload" true (Bb.equal msg buf)
  | None -> Alcotest.fail "datagram not delivered"

let test_udp_port_demux () =
  let net, _a, b, ua, ub = udp_pair () in
  let p1 = ref 0 and p2 = ref 0 in
  Udp.bind ub ~port:1 (fun ~src:_ ~src_port:_ _ -> incr p1);
  Udp.bind ub ~port:2 (fun ~src:_ ~src_port:_ _ -> incr p2);
  Udp.sendto ua ~dst:(Simnet.Node.id b) ~dst_port:1 ~src_port:9 (Bb.create 1);
  Udp.sendto ua ~dst:(Simnet.Node.id b) ~dst_port:2 ~src_port:9 (Bb.create 1);
  Udp.sendto ua ~dst:(Simnet.Node.id b) ~dst_port:2 ~src_port:9 (Bb.create 1);
  Udp.sendto ua ~dst:(Simnet.Node.id b) ~dst_port:3 ~src_port:9 (Bb.create 1);
  Tutil.run_net net;
  Tutil.check_int "port 1" 1 !p1;
  Tutil.check_int "port 2" 2 !p2

let test_udp_double_bind () =
  let _net, _a, _b, _ua, ub = udp_pair () in
  Udp.bind ub ~port:7 (fun ~src:_ ~src_port:_ _ -> ());
  Alcotest.check_raises "double bind"
    (Invalid_argument "Udp.bind: port 7 already bound") (fun () ->
      Udp.bind ub ~port:7 (fun ~src:_ ~src_port:_ _ -> ()))

let test_udp_max_payload () =
  let _net, _a, b, ua, _ub = udp_pair () in
  Tutil.check_int "max payload" (1500 - 28) (Udp.max_payload ua);
  Alcotest.check_raises "oversize"
    (Invalid_argument "Udp.sendto: datagram of 1473 exceeds max payload 1472")
    (fun () ->
       Udp.sendto ua ~dst:(Simnet.Node.id b) ~dst_port:1 ~src_port:1
         (Bb.create 1473))

let test_udp_loss () =
  let net, _a, b, ua, ub =
    udp_pair ~model:(Simnet.Presets.transcontinental_loss 0.5) ()
  in
  let got = ref 0 in
  Udp.bind ub ~port:5 (fun ~src:_ ~src_port:_ _ -> incr got);
  let n = 2000 in
  let sim = Simnet.Net.sim net in
  let rec send i =
    if i < n then begin
      Udp.sendto ua ~dst:(Simnet.Node.id b) ~dst_port:5 ~src_port:5
        (Bb.create 100);
      Engine.Sim.after sim 3_000_000 (fun () -> send (i + 1))
    end
  in
  send 0;
  Tutil.run_net net ~until:(Engine.Time.sec 60);
  let ratio = float_of_int !got /. float_of_int n in
  Tutil.check_bool "about half delivered" true (ratio > 0.42 && ratio < 0.58)

let test_udp_unbind () =
  let net, _a, b, ua, ub = udp_pair () in
  let got = ref 0 in
  Udp.bind ub ~port:9 (fun ~src:_ ~src_port:_ _ -> incr got);
  Udp.unbind ub ~port:9;
  Udp.sendto ua ~dst:(Simnet.Node.id b) ~dst_port:9 ~src_port:1 (Bb.create 4);
  Tutil.run_net net;
  Tutil.check_int "nothing received after unbind" 0 !got

let () =
  Alcotest.run "drivers"
    [ ("gm",
       [ Alcotest.test_case "channel budget" `Quick test_gm_channel_budget;
         Alcotest.test_case "sci budget" `Quick test_gm_sci_budget;
         Alcotest.test_case "requires SAN" `Quick test_gm_requires_san;
         Alcotest.test_case "reopen after close" `Quick
           test_gm_reopen_after_close;
         Alcotest.test_case "roundtrip small" `Quick test_gm_roundtrip_small;
         Alcotest.test_case "fragmentation" `Quick
           test_gm_fragmentation_integrity;
         Alcotest.test_case "ordering" `Quick test_gm_ordering;
         Alcotest.test_case "channel isolation" `Quick
           test_gm_channel_isolation;
         Alcotest.test_case "sendv gather" `Quick test_gm_sendv_gather;
         Alcotest.test_case "single fragment: view copied" `Quick
           test_gm_single_fragment_view_copied;
         Alcotest.test_case "single fragment: pooled header reuse" `Quick
           test_gm_pooled_header_reuse ]);
      Tutil.qsuite "gm-props"
        [ prop_gm_any_size_roundtrip; prop_uninit_allocations_match_reference ];
      ("udp",
       [ Alcotest.test_case "roundtrip" `Quick test_udp_roundtrip;
         Alcotest.test_case "port demux" `Quick test_udp_port_demux;
         Alcotest.test_case "double bind" `Quick test_udp_double_bind;
         Alcotest.test_case "max payload" `Quick test_udp_max_payload;
         Alcotest.test_case "loss" `Quick test_udp_loss;
         Alcotest.test_case "unbind" `Quick test_udp_unbind ]);
    ]

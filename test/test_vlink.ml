module Bb = Engine.Bytebuf
module Vl = Vlink.Vl
module Streamq = Vlink.Streamq
module Proc = Engine.Proc
module Vio = Personalities.Vio

(* ---------- Streamq ---------- *)

let test_streamq_basic () =
  let q = Streamq.create () in
  Streamq.push q (Bb.of_string "hello");
  Streamq.push q (Bb.of_string " world");
  Tutil.check_int "length" 11 (Streamq.length q);
  (match Streamq.pop q ~max:3 with
   | Some b -> Tutil.check_string "partial pop" "hel" (Bb.to_string b)
   | None -> Alcotest.fail "pop");
  Tutil.check_string "pop_exact across chunks" "lo wor"
    (Bb.to_string (Streamq.pop_exact q 6));
  Tutil.check_int "remaining" 2 (Streamq.length q)

let prop_streamq_preserves_stream =
  QCheck.Test.make ~name:"streamq preserves the byte stream" ~count:100
    QCheck.(pair (list small_string) (list (int_range 1 50)))
    (fun (chunks, reads) ->
       let q = Streamq.create () in
       List.iter (fun s -> Streamq.push q (Bb.of_string s)) chunks;
       let expected = String.concat "" chunks in
       let buf = Buffer.create 64 in
       List.iter
         (fun n ->
            match Streamq.pop q ~max:n with
            | Some b -> Buffer.add_string buf (Bb.to_string b)
            | None -> ())
         reads;
       while not (Streamq.is_empty q) do
         match Streamq.pop q ~max:17 with
         | Some b -> Buffer.add_string buf (Bb.to_string b)
         | None -> ()
       done;
       Buffer.contents buf = expected)

(* ---------- Vl core over loopback ---------- *)

let test_loopback_pair_roundtrip () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let va, vb = Vlink.Vl_loopback.pair a in
  let h =
    Simnet.Node.spawn a (fun () ->
        ignore (Vio.write va (Bb.of_string "ping"));
        let buf = Bb.create 4 in
        Tutil.check_bool "read back" true (Vio.read_exact va buf);
        Tutil.check_string "pong" "pong" (Bb.to_string buf))
  in
  let h2 =
    Simnet.Node.spawn a (fun () ->
        let buf = Bb.create 4 in
        Tutil.check_bool "server read" true (Vio.read_exact vb buf);
        Tutil.check_string "ping" "ping" (Bb.to_string buf);
        ignore (Vio.write vb (Bb.of_string "pong")))
  in
  Tutil.run_net net;
  Tutil.assert_done h;
  Tutil.assert_done h2

let test_post_poll_handler_semantics () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let va, vb = Vlink.Vl_loopback.pair a in
  (* Post a read before any data: poll says pending. *)
  let buf = Bb.create 10 in
  let req = Vl.post_read va buf in
  Tutil.check_bool "pending" true (Vl.poll req = None);
  let completions = ref [] in
  Vl.set_handler req (fun c -> completions := c :: !completions);
  ignore (Vl.post_write vb (Bb.of_string "abc"));
  Tutil.run_net net;
  (match Vl.poll req with
   | Some (Vl.Done 3) -> ()
   | _ -> Alcotest.fail "expected Done 3");
  Tutil.check_int "handler fired once" 1 (List.length !completions);
  (* Handler set after completion fires immediately. *)
  let fired = ref false in
  Vl.set_handler req (fun _ -> fired := true);
  Tutil.check_bool "late handler fires" true !fired

let test_read_after_close_eof () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let va, vb = Vlink.Vl_loopback.pair a in
  let h =
    Simnet.Node.spawn a (fun () ->
        ignore (Vio.write va (Bb.of_string "last"));
        Vio.close va)
  in
  let got = ref "" in
  let eof = ref false in
  let h2 =
    Simnet.Node.spawn a (fun () ->
        let buf = Bb.create 4 in
        Tutil.check_bool "data first" true (Vio.read_exact vb buf);
        got := Bb.to_string buf;
        eof := Vio.read vb (Bb.create 1) = 0)
  in
  Tutil.run_net net;
  Tutil.assert_done h;
  Tutil.assert_done h2;
  Tutil.check_string "data" "last" !got;
  Tutil.check_bool "eof" true !eof

let test_loopback_connect_refused () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let vl = Vlink.Vl_loopback.connect a ~port:1234 in
  let h =
    Simnet.Node.spawn a (fun () ->
        match Vl.await_connected vl with
        | Ok () -> Alcotest.fail "should refuse"
        | Error _ -> ())
  in
  Tutil.run_net net;
  Tutil.assert_done h

(* ---------- driver matrix: echo over each driver ---------- *)

let echo_via_grid ~model ~prefs ~expect_driver ~bytes =
  let grid, a, b, _seg = Tutil.grid_pair ~prefs model in
  Padico.listen grid b ~port:5000 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"echo" (fun () ->
             let buf = Bb.create 65_536 in
             let rec loop () =
               let n = Vio.read vl buf in
               if n > 0 then begin
                 ignore (Vio.write vl (Bb.sub buf 0 n));
                 loop ()
               end
             in
             loop ())));
  let result = ref false in
  let driver = ref "" in
  let h =
    Padico.spawn grid a ~name:"client" (fun () ->
        let vl = Padico.connect grid ~src:a ~dst:b ~port:5000 in
        (match Vio.connect_wait vl with
         | Ok () -> ()
         | Error e -> failwith e);
        driver := Vl.driver_name vl;
        let msg = Tutil.pattern_buf ~seed:3 bytes in
        ignore (Vio.write vl msg);
        let back = Bb.create bytes in
        Tutil.check_bool "echo complete" true (Vio.read_exact vl back);
        result := Bb.equal msg back)
  in
  Tutil.run_grid grid;
  Tutil.assert_done h;
  Tutil.check_bool "payload intact" true !result;
  Tutil.check_string "driver" expect_driver !driver

let default_prefs = Selector.Prefs.default

let test_echo_sysio () =
  echo_via_grid ~model:Simnet.Presets.ethernet100 ~prefs:default_prefs
    ~expect_driver:"sysio" ~bytes:50_000

let test_echo_madio () =
  echo_via_grid ~model:Simnet.Presets.myrinet2000 ~prefs:default_prefs
    ~expect_driver:"madio" ~bytes:200_000

let test_echo_pstream () =
  echo_via_grid ~model:Simnet.Presets.vthd
    ~prefs:
      { default_prefs with Selector.Prefs.pstream_on_wan = true;
        cipher_untrusted = false }
    ~expect_driver:"pstream" ~bytes:300_000

let test_echo_crypto_on_untrusted () =
  (* VTHD is untrusted: with default prefs the cipher wraps the link. *)
  echo_via_grid ~model:Simnet.Presets.vthd ~prefs:default_prefs
    ~expect_driver:"crypto" ~bytes:50_000

let test_echo_adoc_on_slow () =
  echo_via_grid ~model:Simnet.Presets.modem
    ~prefs:
      { default_prefs with Selector.Prefs.adoc_on_slow = true;
        adoc_threshold_bps = 1e5; cipher_untrusted = false;
        vrp_on_lossy = false }
    ~expect_driver:"adoc" ~bytes:20_000

let test_vrp_driver_one_way () =
  let prefs =
    { default_prefs with Selector.Prefs.vrp_on_lossy = true;
      vrp_tolerance = 0.1; cipher_untrusted = false }
  in
  let grid, a, b, _seg =
    Tutil.grid_pair ~prefs (Simnet.Presets.transcontinental_loss 0.05)
  in
  let received = ref 0 in
  Padico.listen grid b ~port:6000 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"sink" (fun () ->
             let buf = Bb.create 65_536 in
             let rec loop () =
               let n = Vio.read vl buf in
               if n > 0 then begin
                 received := !received + n;
                 loop ()
               end
             in
             loop ())));
  let total = 200_000 in
  let h =
    Padico.spawn grid a ~name:"sender" (fun () ->
        let vl = Padico.connect grid ~src:a ~dst:b ~port:6000 in
        Tutil.check_string "vrp chosen" "vrp" (Vl.driver_name vl);
        ignore (Vio.write vl (Bb.create total));
        Vio.close vl)
  in
  Tutil.run_grid grid;
  Tutil.assert_done h;
  Tutil.check_bool "at least 90% arrived" true
    (!received >= total * 9 / 10);
  Tutil.check_bool "no more than sent" true (!received <= total)

(* adoc adapter stacking correctness over an unreliable-ish path *)
let test_adoc_wrap_roundtrip () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let inner_a, inner_b = Vlink.Vl_loopback.pair a in
  let adoc () = Vlink.Vl_filter.adoc ~link_bandwidth_bps:56e3 in
  let va = Vlink.Vl_filter.wrap (adoc ()) inner_a in
  let vb = Vlink.Vl_filter.wrap (adoc ()) inner_b in
  let msg = Bb.create 100_000 (* zeros: compressible *) in
  let ok = ref false in
  let h =
    Simnet.Node.spawn a (fun () -> ignore (Vio.write va msg))
  in
  let h2 =
    Simnet.Node.spawn a (fun () ->
        let out = Bb.create 100_000 in
        Tutil.check_bool "read all" true (Vio.read_exact vb out);
        ok := Bb.equal msg out)
  in
  Tutil.run_net net;
  Tutil.assert_done h;
  Tutil.assert_done h2;
  Tutil.check_bool "decompressed equals input" true !ok

let test_crypto_wrap_wrong_key_fails () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let inner_a, inner_b = Vlink.Vl_loopback.pair a in
  let cipher k =
    Vlink.Vl_filter.cipher ~key:(Methods.Crypto.key_of_string k)
  in
  let va = Vlink.Vl_filter.wrap (cipher "k1") inner_a in
  let vb = Vlink.Vl_filter.wrap (cipher "k2") inner_b in
  let failed = ref false in
  Vl.on_event vb (function Vl.Failed _ -> failed := true | _ -> ());
  ignore (Vl.post_write va (Bb.of_string "secret data"));
  Tutil.run_net net;
  Tutil.check_bool "key mismatch detected" true !failed

(* Raw bytes written under one filter end: a corrupt frame fails the
   descriptor (its pending read completes with an error) instead of
   escaping the run, whatever the codec. *)
let test_corrupt_frame_fails () =
  let u32 n =
    let b = Bb.create 4 in
    Bb.set_u32 b 0 n;
    b
  in
  let bad_flag = Bb.concat [ u32 5; Bb.of_string "\007abcd" ] in
  let bad_length = Bb.concat [ u32 0x7fff_fff0; Bb.of_string "abcd" ] in
  let adoc () = Vlink.Vl_filter.adoc ~link_bandwidth_bps:56e3 in
  let cipher () =
    Vlink.Vl_filter.cipher ~key:(Methods.Crypto.key_of_string "k")
  in
  List.iter
    (fun (name, codec, raw) ->
       let net = Simnet.Net.create () in
       let a = Simnet.Net.add_node net "a" in
       let inner_a, inner_b = Vlink.Vl_loopback.pair a in
       let vb = Vlink.Vl_filter.wrap (codec ()) inner_b in
       let failed = ref false in
       Vl.on_event vb (function Vl.Failed _ -> failed := true | _ -> ());
       let read = Vl.post_read vb (Bb.create 64) in
       ignore (Vl.post_write inner_a raw);
       Tutil.run_net net;
       Tutil.check_bool (name ^ ": descriptor failed") true !failed;
       Tutil.check_bool (name ^ ": read completes with an error") true
         (match Vl.poll read with Some (Vl.Error _) -> true | _ -> false))
    [ ("adoc bad flag", adoc, bad_flag);
      ("adoc bad length", adoc, bad_length);
      ("crypto bad length", cipher, bad_length) ]

let () =
  Alcotest.run "vlink"
    [ ("streamq",
       [ Alcotest.test_case "basics" `Quick test_streamq_basic ]);
      Tutil.qsuite "streamq-props" [ prop_streamq_preserves_stream ];
      ("core",
       [ Alcotest.test_case "loopback roundtrip" `Quick
           test_loopback_pair_roundtrip;
         Alcotest.test_case "post/poll/handler" `Quick
           test_post_poll_handler_semantics;
         Alcotest.test_case "eof" `Quick test_read_after_close_eof;
         Alcotest.test_case "refused" `Quick test_loopback_connect_refused ]);
      ("drivers",
       [ Alcotest.test_case "sysio echo" `Quick test_echo_sysio;
         Alcotest.test_case "madio echo (cross-paradigm)" `Quick
           test_echo_madio;
         Alcotest.test_case "pstream echo" `Quick test_echo_pstream;
         Alcotest.test_case "crypto on untrusted" `Quick
           test_echo_crypto_on_untrusted;
         Alcotest.test_case "adoc on slow" `Quick test_echo_adoc_on_slow;
         Alcotest.test_case "vrp one-way" `Quick test_vrp_driver_one_way ]);
      ("adapters",
       [ Alcotest.test_case "adoc stacking" `Quick test_adoc_wrap_roundtrip;
         Alcotest.test_case "crypto key mismatch" `Quick
           test_crypto_wrap_wrong_key_fails;
         Alcotest.test_case "corrupt frame fails the descriptor" `Quick
           test_corrupt_frame_fails ]);
    ]

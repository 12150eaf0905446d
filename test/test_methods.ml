module Bb = Engine.Bytebuf
module Lz = Methods.Lz
module Adoc = Methods.Adoc
module Crypto = Methods.Crypto
module Vrp = Methods.Vrp

(* ---------- Lz ---------- *)

let test_lz_simple_roundtrip () =
  let input = Bb.of_string "hello hello hello hello hello hello!" in
  let packed = Lz.compress input in
  let out = Lz.decompress packed in
  Tutil.check_bool "roundtrip" true (Bb.equal input out);
  Tutil.check_bool "repetitive input shrinks" true
    (Bb.length packed < Bb.length input)

let test_lz_empty () =
  let out = Lz.decompress (Lz.compress (Bb.create 0)) in
  Tutil.check_int "empty" 0 (Bb.length out)

let test_lz_zeros_compress_well () =
  let input = Bb.create 100_000 in
  let packed = Lz.compress input in
  Tutil.check_bool "zeros compress > 10x" true
    (Bb.length packed * 10 < Bb.length input);
  Tutil.check_bool "roundtrip" true (Bb.equal input (Lz.decompress packed))

let test_lz_random_does_not_explode () =
  let rng = Engine.Rng.create 5 in
  let input = Bb.create 50_000 in
  Bb.fill_random input rng;
  let packed = Lz.compress input in
  Tutil.check_bool "bounded expansion" true
    (Bb.length packed <= Lz.compress_bound (Bb.length input));
  Tutil.check_bool "roundtrip" true (Bb.equal input (Lz.decompress packed))

let test_lz_corrupt_rejected () =
  let packed = Lz.compress (Bb.of_string "some data to compress here") in
  (* Truncate: decoder must raise, not crash or loop. *)
  let truncated = Bb.sub packed 0 (Bb.length packed - 3) in
  Tutil.check_bool "truncated rejected" true
    (try
       ignore (Lz.decompress truncated);
       false
     with Invalid_argument _ -> true);
  (* A header claiming more than the input can describe is refused before
     the output is allocated. *)
  let inflated = Bb.of_string "\x40\x42\x0f\x00\x00" (* 1_000_000 *) in
  Tutil.check_bool "oversized length rejected" true
    (try
       ignore (Lz.decompress inflated);
       false
     with Invalid_argument m -> m = "Lz.decompress: corrupt length")

let prop_lz_roundtrip =
  QCheck.Test.make ~name:"lz decompress(compress(x)) = x" ~count:200
    QCheck.(string_of_size Gen.(int_range 0 5000))
    (fun s ->
       let b = Bb.of_string s in
       Bb.equal b (Lz.decompress (Lz.compress b)))

let prop_lz_repetitive_shrinks =
  QCheck.Test.make ~name:"lz shrinks 64x-repeated content" ~count:50
    QCheck.(string_of_size Gen.(int_range 8 64))
    (fun s ->
       QCheck.assume (String.length s >= 8);
       let repeated = String.concat "" (List.init 64 (fun _ -> s)) in
       let b = Bb.of_string repeated in
       let packed = Lz.compress b in
       Bb.length packed < Bb.length b / 2)

(* ---------- Adoc policy ---------- *)

let test_adoc_pass_on_fast_link () =
  (* 250 MB/s link: the 20 MB/s compressor can never keep up. *)
  let t = Adoc.create ~link_bandwidth_bps:250e6 in
  Tutil.check_bool "fast link passes" true (Adoc.decide t = Adoc.Pass)

let test_adoc_compress_on_slow_link () =
  let t = Adoc.create ~link_bandwidth_bps:56e3 in
  Tutil.check_bool "slow link compresses" true (Adoc.decide t = Adoc.Compress)

let test_adoc_adapts_to_incompressible () =
  let t = Adoc.create ~link_bandwidth_bps:15e6 in
  (* Ratio ~1 on a link close to compressor speed: passing wins. *)
  for _ = 1 to 10 do
    Adoc.observe t ~original:1000 ~compressed:990
  done;
  Tutil.check_bool "incompressible data passes" true (Adoc.decide t = Adoc.Pass)

(* The stacked-filter framer over AdOC bodies: frames fed in awkward
   slices come back whole, in order. *)
let test_adoc_frame_roundtrip () =
  let codec = Vlink.Vl_filter.adoc ~link_bandwidth_bps:56e3 in
  let d = Vlink.Vl_filter.framer codec in
  let chunk1 = Bb.create 5_000 (* zeros: compressible *) in
  let rng = Engine.Rng.create 1 in
  let chunk2 = Bb.create 3_000 in
  Bb.fill_random chunk2 rng;
  let f1, _ = Vlink.Vl_filter.frame codec chunk1 in
  let f2, _ = Vlink.Vl_filter.frame codec chunk2 in
  let stream = Bb.concat [ f1; f2 ] in
  (* Feed in awkward slices. *)
  let outputs = ref [] in
  let pos = ref 0 in
  while !pos < Bb.length stream do
    let n = min 1_234 (Bb.length stream - !pos) in
    (match Vlink.Vl_filter.feed d (Bb.sub stream !pos n) with
     | Ok (chunks, _) -> outputs := !outputs @ chunks
     | Error e -> Alcotest.fail e);
    pos := !pos + n
  done;
  match !outputs with
  | [ o1; o2 ] ->
    Tutil.check_bool "chunk1" true (Bb.equal chunk1 o1);
    Tutil.check_bool "chunk2" true (Bb.equal chunk2 o2);
    Tutil.check_int "nothing pending" 0 (Vlink.Vl_filter.pending d)
  | l -> Alcotest.failf "expected 2 chunks, got %d" (List.length l)

let test_adoc_compressed_flag_fallback () =
  (* Incompressible chunk under Compress decision falls back to Pass. *)
  let t = Adoc.create ~link_bandwidth_bps:56e3 in
  let rng = Engine.Rng.create 2 in
  let chunk = Bb.create 2_000 in
  Bb.fill_random chunk rng;
  let body, decision = Adoc.encode t chunk in
  ignore decision;
  (* Whatever the decision, the body must not be much larger than input. *)
  Tutil.check_bool "no blowup" true
    (Bb.length body <= Bb.length chunk + Adoc.overhead);
  match Adoc.decode body with
  | Ok (out, _) -> Tutil.check_bool "decodes" true (Bb.equal chunk out)
  | Error e -> Alcotest.fail e

(* ---------- Crypto ---------- *)

let test_crypto_roundtrip () =
  let key = Crypto.key_of_string "secret" in
  let msg = Tutil.pattern_buf ~seed:7 1_000 in
  match Crypto.decrypt key (Crypto.encrypt key msg) with
  | Ok out -> Tutil.check_bool "roundtrip" true (Bb.equal msg out)
  | Error e -> Alcotest.fail e

let test_crypto_wrong_key_fails () =
  let k1 = Crypto.key_of_string "alice" in
  let k2 = Crypto.key_of_string "mallory" in
  let msg = Tutil.pattern_buf ~seed:8 500 in
  match Crypto.decrypt k2 (Crypto.encrypt k1 msg) with
  | Ok _ -> Alcotest.fail "wrong key accepted"
  | Error _ -> ()

let test_crypto_tamper_detected () =
  let key = Crypto.key_of_string "secret" in
  let ct = Crypto.encrypt key (Tutil.pattern_buf ~seed:9 100) in
  Bb.set_u8 ct 50 (Bb.get_u8 ct 50 lxor 1);
  match Crypto.decrypt key ct with
  | Ok _ -> Alcotest.fail "tampering accepted"
  | Error _ -> ()

let test_crypto_ciphertext_differs () =
  let key = Crypto.key_of_string "secret" in
  let msg = Bb.of_string "plaintext plaintext" in
  let ct = Crypto.encrypt key msg in
  Tutil.check_bool "not plaintext" false
    (Bb.to_string (Bb.sub ct 0 (Bb.length msg)) = Bb.to_string msg)

let prop_crypto_roundtrip =
  QCheck.Test.make ~name:"crypto roundtrip any payload" ~count:100
    QCheck.(pair string small_string)
    (fun (data, keystr) ->
       let key = Crypto.key_of_string keystr in
       match Crypto.decrypt key (Crypto.encrypt key (Bb.of_string data)) with
       | Ok out -> Bb.to_string out = data
       | Error _ -> false)

(* Every single-byte change of a frame, in the ciphertext or in the MAC,
   must be rejected: lengths 0-40, every position, every non-zero xor. The
   frames are also decrypted from slices at offsets 1-7 (unaligned words). *)
let test_crypto_rejects_every_byte_flip () =
  let key = Crypto.key_of_string "secret" in
  for n = 0 to 40 do
    let msg = Tutil.pattern_buf ~seed:n n in
    let ct = Crypto.encrypt key msg in
    Tutil.check_int "frame length" (n + Crypto.overhead) (Bb.length ct);
    let padded = Bb.create (Bb.length ct + 7) in
    for off = 1 to 7 do
      Bb.blit ~src:ct ~src_off:0 ~dst:padded ~dst_off:off ~len:(Bb.length ct);
      match Crypto.decrypt key (Bb.sub padded off (Bb.length ct)) with
      | Ok out when Bb.equal out msg -> ()
      | Ok _ -> Alcotest.failf "n=%d off=%d: wrong plaintext" n off
      | Error e -> Alcotest.failf "n=%d off=%d: %s" n off e
    done;
    for i = 0 to Bb.length ct - 1 do
      let v = Bb.get_u8 ct i in
      for d = 1 to 255 do
        Bb.set_u8 ct i (v lxor d);
        match Crypto.decrypt key ct with
        | Ok _ -> Alcotest.failf "n=%d: byte %d xor %d accepted" n i d
        | Error _ -> ()
      done;
      Bb.set_u8 ct i v
    done
  done

(* 64 KiB: the output frame plus a constant number of words. *)
let test_crypto_allocates_its_output () =
  let key = Crypto.key_of_string "bench" in
  let msg = Tutil.pattern_buf ~seed:3 65_536 in
  ignore (Crypto.encrypt key msg);
  let _, promoted0, major0 = Gc.counters () in
  let w0 = Gc.minor_words () in
  let ct = Crypto.encrypt key msg in
  let w1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let words = w1 -. w0 +. (major1 -. major0) -. (promoted1 -. promoted0) in
  let frame_words = float_of_int ((Bb.length ct / 8) + 1) in
  Tutil.check_bool
    (Printf.sprintf "%.0f words for a %.0f-word frame" words frame_words)
    true
    (words <= frame_words +. 64.0)

(* ---------- VRP ---------- *)

let vrp_run ~loss ~tolerance ~mbytes =
  let net, a, b, seg = Tutil.pair (Simnet.Presets.transcontinental_loss loss) in
  let sio_a = Netaccess.Sysio.get a in
  let sio_b = Netaccess.Sysio.get b in
  let ua = Drivers.Udp.attach seg a in
  let ub = Drivers.Udp.attach seg b in
  let receiver = Vrp.create_receiver sio_b ub ~port:99 () in
  let sender =
    Vrp.create_sender sio_a ua ~dst:(Simnet.Node.id b) ~dst_port:99 ~tolerance
      ~rate_bps:570e3
  in
  let total = mbytes * 100_000 in
  Vrp.send sender (Bb.create total);
  Vrp.finish sender;
  Tutil.run_net net ~until:(Engine.Time.sec 590);
  (sender, receiver, total)

let test_vrp_reliable_when_zero_tolerance () =
  let _sender, receiver, total = vrp_run ~loss:0.05 ~tolerance:0.0 ~mbytes:2 in
  Tutil.check_bool "complete" true (Vrp.complete receiver);
  Tutil.check_int "every byte delivered" total (Vrp.delivered_bytes receiver);
  Tutil.check_int "nothing abandoned" 0 (Vrp.lost_bytes receiver)

let test_vrp_bounded_loss () =
  let sender, receiver, total = vrp_run ~loss:0.08 ~tolerance:0.10 ~mbytes:2 in
  Tutil.check_bool "complete" true (Vrp.complete receiver);
  let delivered = Vrp.delivered_bytes receiver in
  let lost = Vrp.lost_bytes receiver in
  Tutil.check_bool "loss within tolerance (+margin)" true
    (Vrp.observed_loss_ratio receiver <= 0.11);
  Tutil.check_bool "most data arrived" true
    (delivered + lost >= total - 2_000);
  Tutil.check_bool "some loss was accepted" true
    (Vrp.chunks_abandoned sender > 0)

let test_vrp_no_loss_no_retransmit () =
  let sender, receiver, total = vrp_run ~loss:0.0 ~tolerance:0.1 ~mbytes:1 in
  Tutil.check_bool "complete" true (Vrp.complete receiver);
  Tutil.check_int "all delivered" total (Vrp.delivered_bytes receiver);
  Tutil.check_int "no retransmissions" 0 (Vrp.chunks_retransmitted sender);
  Tutil.check_int "no abandons" 0 (Vrp.chunks_abandoned sender)

let () =
  Alcotest.run "methods"
    [ ("lz",
       [ Alcotest.test_case "simple roundtrip" `Quick test_lz_simple_roundtrip;
         Alcotest.test_case "empty" `Quick test_lz_empty;
         Alcotest.test_case "zeros" `Quick test_lz_zeros_compress_well;
         Alcotest.test_case "random bounded" `Quick
           test_lz_random_does_not_explode;
         Alcotest.test_case "corrupt rejected" `Quick test_lz_corrupt_rejected
       ]);
      Tutil.qsuite "lz-props" [ prop_lz_roundtrip; prop_lz_repetitive_shrinks ];
      ("adoc",
       [ Alcotest.test_case "pass on fast link" `Quick
           test_adoc_pass_on_fast_link;
         Alcotest.test_case "compress on slow link" `Quick
           test_adoc_compress_on_slow_link;
         Alcotest.test_case "adapts to incompressible" `Quick
           test_adoc_adapts_to_incompressible;
         Alcotest.test_case "frame roundtrip" `Quick test_adoc_frame_roundtrip;
         Alcotest.test_case "no blowup" `Quick
           test_adoc_compressed_flag_fallback ]);
      ("crypto",
       [ Alcotest.test_case "roundtrip" `Quick test_crypto_roundtrip;
         Alcotest.test_case "wrong key" `Quick test_crypto_wrong_key_fails;
         Alcotest.test_case "tamper" `Quick test_crypto_tamper_detected;
         Alcotest.test_case "ciphertext differs" `Quick
           test_crypto_ciphertext_differs;
         Alcotest.test_case "rejects every single-byte flip" `Quick
           test_crypto_rejects_every_byte_flip;
         Alcotest.test_case "encrypt allocates its output only" `Quick
           test_crypto_allocates_its_output ]);
      Tutil.qsuite "crypto-props" [ prop_crypto_roundtrip ];
      ("vrp",
       [ Alcotest.test_case "tolerance 0 reliable" `Quick
           test_vrp_reliable_when_zero_tolerance;
         Alcotest.test_case "bounded loss" `Quick test_vrp_bounded_loss;
         Alcotest.test_case "no loss, no retx" `Quick
           test_vrp_no_loss_no_retransmit ]);
    ]

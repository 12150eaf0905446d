(* Wall-clock micro-benchmarks (Bechamel): the real CPU cost of the
   framework's hot paths — marshalling, compression, ciphering, the event
   queue. These are host-time measurements, complementary to the
   virtual-time experiments. *)

module Bb = Engine.Bytebuf
module Cdr = Mw_corba.Cdr

open Bechamel
open Toolkit

let payload_64k = Bb.create 65_536

let () = Bb.fill_pattern payload_64k ~seed:3

let compressible_64k =
  let b = Bb.create 65_536 in
  (* Mildly repetitive content. *)
  for i = 0 to Bb.length b - 1 do
    Bb.set_u8 b i (i mod 61)
  done;
  b

let lz_packed = Methods.Lz.compress compressible_64k

let crypto_key = Methods.Crypto.key_of_string "bench"

let value_64k = Cdr.VOctets payload_64k

let test_lz_compress =
  Test.make ~name:"lz.compress 64KB"
    (Staged.stage (fun () -> ignore (Methods.Lz.compress compressible_64k)))

let test_lz_decompress =
  Test.make ~name:"lz.decompress 64KB"
    (Staged.stage (fun () -> ignore (Methods.Lz.decompress lz_packed)))

let test_cdr_encode_zero_copy =
  Test.make ~name:"cdr.encode omniORB4 64KB"
    (Staged.stage (fun () -> ignore (Cdr.encode_iov Cdr.omniorb4 value_64k)))

let test_cdr_encode_copying =
  Test.make ~name:"cdr.encode Mico 64KB"
    (Staged.stage (fun () -> ignore (Cdr.encode_iov Cdr.mico value_64k)))

let test_crypto =
  Test.make ~name:"crypto.encrypt 64KB"
    (Staged.stage (fun () -> ignore (Methods.Crypto.encrypt crypto_key payload_64k)))

(* Event-queue hold model, the simulator's steady state: at a standing
   depth, each round dispatches the earliest event and schedules one at a
   later time. 2k and 16k are the mean queue depths of the benchmark's
   grid_collectives and edge_churn workloads. *)
let heap_hold depth name =
  let h = Engine.Heap.create ~dummy:ignore in
  let rng = Engine.Rng.create 11 in
  for _ = 1 to depth do
    Engine.Heap.push h ~prio:(Engine.Rng.int rng 1_000_000) ignore
  done;
  Test.make ~name
    (Staged.stage (fun () ->
         let now = Engine.Heap.min_prio h in
         let f = Engine.Heap.pop h in
         Engine.Heap.push h ~prio:(now + 1 + Engine.Rng.int rng 1_000_000) f))

let test_heap_hold_2k = heap_hold 2_000 "heap.hold depth=2k"

let test_heap_hold_16k = heap_hold 16_000 "heap.hold depth=16k"

let test_base64 =
  Test.make ~name:"soap.base64 64KB"
    (Staged.stage (fun () ->
         ignore (Mw_soap.Soap.base64_encode (Bb.to_string payload_64k))))

(* Streamq.pop must be O(1) in the standing queue depth: the remainder
   of a split head chunk lives in a dedicated front slot — re-inserting
   it through the FIFO would cost a full-queue transfer per bounded
   read. Steady state per run: one 128 B push, two 64 B split pops, so
   the depth stays constant while every pop exercises the split path. *)
let streamq_at_depth depth =
  let q = Vlink.Streamq.create () in
  for _ = 1 to depth do
    Vlink.Streamq.push q (Bb.create 128)
  done;
  q

let q_shallow = streamq_at_depth 1_000

let q_deep = streamq_at_depth 64_000

let streamq_test q name =
  Test.make ~name
    (Staged.stage (fun () ->
         Vlink.Streamq.push q (Bb.create 128);
         ignore (Vlink.Streamq.pop q ~max:64);
         ignore (Vlink.Streamq.pop q ~max:64)))

let test_streamq_shallow = streamq_test q_shallow "streamq.pop depth=1k"

let test_streamq_deep = streamq_test q_deep "streamq.pop depth=64k"

let benchmark () =
  let tests =
    Test.make_grouped ~name:"padico"
      [ test_lz_compress; test_lz_decompress; test_cdr_encode_zero_copy;
        test_cdr_encode_copying; test_crypto; test_heap_hold_2k;
        test_heap_hold_16k; test_base64;
        test_streamq_shallow; test_streamq_deep ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  results

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let run () =
  Bhelp.print_header "Microbenchmarks (real wall-clock, Bechamel OLS)";
  let results = benchmark () in
  Hashtbl.iter
    (fun name ols ->
       match Analyze.OLS.estimates ols with
       | Some [ est ] -> Printf.printf "%-32s %12.1f ns/run\n" name est
       | _ -> Printf.printf "%-32s (no estimate)\n" name)
    results;
  let estimate sub =
    Hashtbl.fold
      (fun name ols acc ->
         if acc <> None || not (contains name sub) then acc
         else
           match Analyze.OLS.estimates ols with
           | Some [ est ] -> Some est
           | _ -> None)
      results None
  in
  List.iter
    (fun (sub, key) ->
       match estimate sub with
       | Some ns -> Bhelp.record ~experiment:"micro" key ns
       | None -> failwith (sub ^ " estimate missing"))
    [ ("heap.hold depth=2k", "heap_hold_2k_ns");
      ("heap.hold depth=16k", "heap_hold_16k_ns") ];
  (* The O(1) claim, asserted: a 64x deeper queue must not make the
     split-pop meaningfully slower (8x is far beyond measurement noise
     but far below the O(depth) behaviour of front re-insertion). *)
  match (estimate "streamq.pop depth=1k", estimate "streamq.pop depth=64k") with
  | Some shallow, Some deep ->
    Printf.printf
      "streamq.pop O(1) check: %.1f ns at depth 1k vs %.1f ns at depth 64k\n"
      shallow deep;
    if deep > 8.0 *. Float.max shallow 1.0 then
      failwith "Streamq.pop scales with queue depth (expected O(1))"
  | _ -> failwith "streamq.pop estimates missing"

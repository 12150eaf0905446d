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

let payload_4k = Bb.sub payload_64k 1 4096

let test_checksum =
  Test.make ~name:"bytebuf.checksum 4KB"
    (Staged.stage (fun () -> ignore (Bb.checksum payload_4k)))

(* Event-queue hold model, the simulator's steady state: at a standing
   depth, each round dispatches the earliest event and schedules one at a
   later time. Depth 256 is the deepest a grid_collectives island shard's
   heap gets (its mean at event dispatch is about 21); 16k is the
   deep-queue case, a gateway holding one armed deadline per connection
   (edge_churn's one heap averages about 1.15k, its cancelled RTOs
   leaving at once). *)
let heap_hold depth name =
  let h = Engine.Heap.create ~dummy:ignore in
  let rng = Engine.Rng.create 11 in
  for _ = 1 to depth do
    ignore (Engine.Heap.push h ~prio:(Engine.Rng.int rng 1_000_000) ignore)
  done;
  Test.make ~name
    (Staged.stage (fun () ->
         let now = Engine.Heap.min_prio h in
         let f = Engine.Heap.pop h in
         ignore
           (Engine.Heap.push h ~prio:(now + 1 + Engine.Rng.int rng 1_000_000) f)))

let test_heap_hold_256 = heap_hold 256 "heap.hold depth=256"

let test_heap_hold_16k = heap_hold 16_000 "heap.hold depth=16k"

(* A deadline armed and cancelled before it fires, the edge gateway's
   common case (a SYN's RTO, cancelled by its SYN-ACK), on the virtual
   clock over a standing queue of 16k events: the cancel takes the entry
   out of the simulator's heap. Built when the benchmark starts, after
   any earlier experiment's reset. *)
let sim_arm_cancel () =
  let sim = Engine.Sim.create () in
  let rng = Engine.Rng.create 13 in
  for _ = 1 to 16_000 do
    Engine.Sim.after sim (Engine.Rng.int rng 1_000_000) ignore
  done;
  let clk = Engine.Sim.clock sim in
  Test.make ~name:"sim.arm+cancel depth=16k"
    (Staged.stage (fun () ->
         Engine.Clock.cancel
           (Engine.Clock.arm clk (Engine.Rng.int rng 1_000_000) ignore)))

(* Timers cancelled on the virtual clock leave nothing in the
   simulator's queue: the number of events still queued once 10k are
   cancelled (0 when cancellation removes them). *)
let cancelled_left_queued () =
  let sim = Engine.Sim.create () in
  let clk = Engine.Sim.clock sim in
  let timers =
    List.init 10_000 (fun i -> Engine.Clock.arm clk (1 + i) ignore)
  in
  List.iter Engine.Clock.cancel timers;
  Engine.Sim.pending sim

(* Minor words of one virtual [Clock.arm] + [Clock.cancel], over 10k
   pairs on a warmed queue. Allocation is deterministic: the timer record
   (header, heap, handle) is 3 words, and the fraction above it is the
   counter's own boxed float. *)
let clock_arm_cancel_words () =
  let clk = Engine.Sim.clock (Engine.Sim.create ()) in
  let n = 10_000 in
  Engine.Clock.cancel (Engine.Clock.arm clk 1 ignore);
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Engine.Clock.cancel (Engine.Clock.arm clk i ignore)
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

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
        test_cdr_encode_copying; test_crypto; test_checksum;
        test_heap_hold_256; test_heap_hold_16k; sim_arm_cancel ();
        test_base64;
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

(* One SAN message through the whole parallel stack: a Circuit message
   shaped like a collective's allreduce step (seq and hdr words, then a
   512 B body) from rank 0 to rank 1 of a 2-node Myrinet grid, through
   MadIO, Madeleine and GM, and up to the receiver's Circuit handler.
   Messages go out in batches, each batch driven to delivery; the figures
   are per message: host ns (median over batches) and minor-heap words
   (over all batches; the simulation is deterministic). *)
let san_message () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" and b = Padico.add_node grid "b" in
  ignore (Padico.add_segment grid Simnet.Presets.myrinet2000 [ a; b ]);
  let cts = Padico.circuit grid ~name:"micro" [ a; b ] in
  let adapter = Circuit.Ct.link_adapter_name cts.(0) ~dst:1 in
  if adapter <> "madio" then
    failwith ("san message: link bound to " ^ adapter ^ ", expected madio");
  let received = ref 0 in
  Circuit.Ct.set_recv cts.(1) (fun inc ->
      ignore (Circuit.Ct.unpack_int inc);
      ignore (Circuit.Ct.unpack_int inc);
      ignore (Circuit.Ct.unpack inc (Circuit.Ct.remaining inc));
      incr received);
  let body = Bb.create 512 in
  let batch = 100 and batches = 50 in
  let run_batch () =
    for seq = 1 to batch do
      let out = Circuit.Ct.begin_packing cts.(0) ~dst:1 in
      Circuit.Ct.pack_int out seq;
      Circuit.Ct.pack_int out 0;
      Circuit.Ct.pack out body;
      Circuit.Ct.end_packing out
    done;
    Padico.run grid
  in
  run_batch (); (* warm-up: lazy set-up, first-touch allocations *)
  let words0 = Gc.minor_words () in
  let samples =
    Array.init batches (fun _ ->
        let t0 = Unix.gettimeofday () in
        run_batch ();
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch)
  in
  let words = (Gc.minor_words () -. words0) /. float_of_int (batch * batches) in
  if !received <> batch * (batches + 1) then
    failwith
      (Printf.sprintf "san message: %d of %d delivered" !received
         (batch * (batches + 1)));
  Array.sort compare samples;
  (samples.(batches / 2), words)

(* Words allocated per 64 KiB [Crypto.encrypt], over 16 calls:
   (minor-heap words, all words). The output frame is larger than the
   minor heap's allocation limit, so it lands in the major heap directly
   and appears only in the second figure. Allocation is deterministic.
   Minor words come from [Gc.minor_words]: [Gc.counters]' minor figure
   under-counts across the minor collections the frames force. *)
let crypto_alloc () =
  let calls = 16 in
  ignore (Methods.Crypto.encrypt crypto_key payload_64k);
  let _, promoted0, major0 = Gc.counters () in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Methods.Crypto.encrypt crypto_key payload_64k))
  done;
  let w1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let per x = x /. float_of_int calls in
  let minor = w1 -. w0 in
  (per minor, per (minor +. (major1 -. major0) -. (promoted1 -. promoted0)))

(* One steady-state 16 KiB round trip over a [Hostio.Stream.pair]: [a]
   writes the request, [b] echoes every read straight back, [a] reads the
   reply. Figures per round trip: host ns (median over batches) and
   major-heap words, direct and promoted (over all batches). A round trip
   delivers 32 KiB, half to each end, and its reads may allocate exactly
   that: a buffer sized for the worst case (a 64 KiB block per read(2), a
   fresh send chunk per write) shows up here. *)
let host_stream_size = 16_384

let host_stream_echo () =
  let module Stream = Hostio.Stream in
  let loop = Hostio.Loop.create () in
  let a, b = Stream.pair loop in
  let req = Bb.sub payload_64k 5 host_stream_size in
  let echoed = ref 0 in
  let rec drain s f =
    match Stream.read s ~max:max_int with
    | Some buf ->
      f buf;
      drain s f
    | None -> ()
  in
  Stream.set_event_cb b (function
    | Stream.Readable ->
      drain b (fun buf ->
          if Stream.write b buf <> Bb.length buf then
            failwith "host stream echo: short echo")
    | _ -> ());
  Stream.set_event_cb a (function
    | Stream.Readable ->
      drain a (fun buf -> echoed := !echoed + Bb.length buf);
      if !echoed >= host_stream_size then Hostio.Loop.stop loop
    | _ -> ());
  let round () =
    echoed := 0;
    if Stream.write a req <> host_stream_size then
      failwith "host stream echo: short request";
    Hostio.Loop.run loop
      ~until_ns:(Hostio.Loop.now_ns loop + Engine.Time.sec 5);
    if !echoed <> host_stream_size then
      failwith (Printf.sprintf "host stream echo: %d bytes back" !echoed)
  in
  for _ = 1 to 100 do round () done;
  let batch = 100 and batches = 20 in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let samples =
    Array.init batches (fun _ ->
        let t0 = Unix.gettimeofday () in
        for _ = 1 to batch do round () done;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int batch)
  in
  let major = (Gc.quick_stat ()).Gc.major_words -. major0 in
  Stream.close a;
  Stream.close b;
  Hostio.Loop.run loop;
  Array.sort compare samples;
  (samples.(batches / 2), major /. float_of_int (batch * batches))

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
    [ ("heap.hold depth=256", "heap_hold_256_ns");
      ("heap.hold depth=16k", "heap_hold_16k_ns");
      ("sim.arm+cancel depth=16k", "sim_arm_cancel_ns");
      ("bytebuf.checksum 4KB", "checksum_4k_ns");
      ("crypto.encrypt 64KB", "crypto_encrypt_64k_ns") ];
  let left = cancelled_left_queued () in
  Printf.printf "%-32s %12d events left queued\n" "cancelled timers (10k)" left;
  if left > 0 then
    failwith
      (Printf.sprintf "%d cancelled virtual timers still queued in the sim" left);
  (* An arm + cancel allocates its timer record and nothing else. *)
  let words = clock_arm_cancel_words () in
  Printf.printf "%-32s %12.1f minor words (budget 3)\n" "clock.arm+cancel" words;
  Bhelp.record ~experiment:"micro" "clock_arm_cancel_minor_words" words;
  if words >= 4.0 then
    failwith
      (Printf.sprintf "clock.arm+cancel allocates %.1f minor words (budget 3)"
         words);
  (* The cipher allocates its output frame and a constant number of words
     besides: no per-byte boxing. The budget is the frame plus 64 words. *)
  let minor, total = crypto_alloc () in
  let frame = Bb.length payload_64k + Methods.Crypto.overhead in
  let budget = float_of_int ((frame / 8) + 1 + 64) in
  Printf.printf "%-32s %12.1f minor words %8.1f words in all (budget %.0f)\n"
    "crypto.encrypt 64KB allocation" minor total budget;
  Bhelp.record ~experiment:"micro" "crypto_encrypt_64k_minor_words" minor;
  if total > budget then
    failwith
      (Printf.sprintf "crypto.encrypt 64KB allocates %.0f words (budget %.0f)"
         total budget);
  (* Reused stream buffers: a round trip's reads allocate the bytes they
     deliver, each in one block (a header word each), and 64 words
     besides. *)
  let ns, major = host_stream_echo () in
  let budget = float_of_int ((2 * host_stream_size / 8) + 2 + 64) in
  Printf.printf "%-32s %12.1f ns/rt   %8.1f major words/rt (budget %.0f)\n"
    "host stream echo 16KB" ns major budget;
  Bhelp.record ~experiment:"micro" "host_stream_echo_ns" ns;
  Bhelp.record ~experiment:"micro" "host_stream_echo_major_words" major;
  if major > budget then
    failwith
      (Printf.sprintf "host stream echo 16KB allocates %.0f major words (budget %.0f)"
         major budget);
  let ns, words = san_message () in
  Printf.printf "%-32s %12.1f ns/msg %8.1f minor words/msg\n"
    "san message (Circuit/MadIO/GM)" ns words;
  Bhelp.record ~experiment:"micro" "san_msg_ns" ns;
  Bhelp.record ~experiment:"micro" "san_msg_minor_words" words;
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

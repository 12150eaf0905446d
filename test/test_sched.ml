(* Arbitration & small-message coalescing.

   Covers: MadIO coalescing semantics (no loss, no reorder, boundary
   preservation, no delay on an idle flow, send-completion and link-down
   behaviour), the Bytebuf slab pool, the Streamq O(1) front slot — and
   regression pins asserting that the fixed-quanta dispatcher keeps the
   E2/E9/E10/E11/E12(c) code paths byte-identical in virtual time (any
   drift in the shared fast path shows up as an exact-equality failure
   here). *)

module Bb = Engine.Bytebuf
module Time = Engine.Time
module Vl = Vlink.Vl
module Madio = Netaccess.Madio
module Sysio = Netaccess.Sysio
module Plan = Padico_fault.Plan
module Inject = Padico_fault.Inject
module Trace = Padico_obs.Trace

let check_int = Tutil.check_int

let check_bool = Tutil.check_bool

let check_string = Tutil.check_string

let madio_grid ?(seed = 7) () =
  let grid, a, b, seg = Tutil.grid_pair ~seed Simnet.Presets.myrinet2000 in
  (grid, a, b, Padico.madio grid a seg, Padico.madio grid b seg)

(* ---------- fixed-quanta regression pins ----------

   Each scenario walks one experiment's code path (E2 vlink echo, E9 raw
   MadIO ping-pong, E10 failover, E11 credit window, E12(c) ping-pong
   beside a silent socket) under the default quanta and must finish at
   the exact pinned virtual time: a message only coalesces behind its
   flow's in-flight packet, so none of these paths may move by a single
   nanosecond. *)

(* E2 path: vlink echo round trip over Myrinet (selector picks madio). *)
let e2_scenario () =
  let grid, a, b, _seg = Tutil.grid_pair ~seed:7 Simnet.Presets.myrinet2000 in
  Padico.listen grid b ~port:5000 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"echo" (fun () ->
             let buf = Bb.create 64 in
             match Vl.await (Vl.post_read vl buf) with
             | Vl.Done n ->
               ignore (Vl.await (Vl.post_write vl (Bb.sub buf 0 n)))
             | _ -> ())));
  let t_done = ref (-1) in
  let h =
    Padico.spawn grid a ~name:"client" (fun () ->
        let vl = Padico.connect grid ~src:a ~dst:b ~port:5000 in
        (match Vl.await_connected vl with
         | Ok () -> ()
         | Error m -> Alcotest.failf "connect: %s" m);
        ignore (Vl.await (Vl.post_write vl (Tutil.pattern_buf ~seed:1 64)));
        match Vl.await (Vl.post_read vl (Bb.create 64)) with
        | Vl.Done 64 -> t_done := Padico.now grid
        | _ -> Alcotest.fail "echo incomplete")
  in
  Tutil.run_grid grid;
  Tutil.assert_done h;
  !t_done

(* E9 path: raw MadIO ping-pong, 50 round trips of 64 B. *)
let e9_scenario () =
  let grid, _a, b, ma, mb = madio_grid () in
  let la = Madio.open_lchannel ma ~id:9 in
  let lb = Madio.open_lchannel mb ~id:9 in
  let iters = 50 in
  let t_done = ref (-1) in
  let rounds = ref 0 in
  Madio.set_recv lb (fun ~src buf -> Madio.send lb ~dst:src buf);
  Madio.set_recv la (fun ~src:_ _ ->
      incr rounds;
      if !rounds = iters then t_done := Padico.now grid
      else
        Madio.send la ~dst:(Simnet.Node.id b) (Tutil.pattern_buf ~seed:!rounds 64));
  Madio.send la ~dst:(Simnet.Node.id b) (Tutil.pattern_buf ~seed:0 64);
  Tutil.run_grid grid;
  check_int "all rounds" iters !rounds;
  !t_done

(* E10 path: resilient transfer with a SAN link-down at 1 ms. *)
let e10_scenario () =
  let grid = Padico.create ~seed:42 () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore
    (Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san" [ a; b ]);
  ignore
    (Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ]);
  Resilient.listen grid b ~port:9000 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"echo" (fun () ->
             let buf = Bb.create 65_536 in
             let rec loop () =
               match Vl.await (Vl.post_read vl buf) with
               | Vl.Done n ->
                 (match Vl.await (Vl.post_write vl (Bb.sub buf 0 n)) with
                  | Vl.Done _ -> loop ()
                  | _ -> ())
               | _ -> ()
             in
             loop ())));
  let conn = Resilient.connect grid ~src:a ~dst:b ~port:9000 in
  let cvl = Resilient.vl conn in
  let total = 100_000 in
  let received = ref 0 in
  let t_done = ref (-1) in
  let h =
    Padico.spawn grid a ~name:"client" (fun () ->
        (match Vl.await_connected cvl with
         | Ok () -> ()
         | Error m -> Alcotest.failf "connect: %s" m);
        let chunk = 65_536 in
        let sent = ref 0 in
        while !sent < total do
          let n = min chunk (total - !sent) in
          ignore (Vl.post_write cvl (Tutil.pattern_buf ~seed:!sent n));
          sent := !sent + n
        done;
        let buf = Bb.create 65_536 in
        let rec rd () =
          if !received < total then
            match Vl.await (Vl.post_read cvl buf) with
            | Vl.Done n ->
              received := !received + n;
              rd ()
            | Vl.Eof | Vl.Again -> ()
            | Vl.Error m -> Alcotest.failf "read: %s" m
          else t_done := Padico.now grid
        in
        rd ())
  in
  (match Plan.parse "at 1ms link-down san\n" with
   | Ok plan -> ignore (Inject.apply (Padico.net grid) plan)
   | Error e -> Alcotest.failf "plan: %s" e);
  Tutil.run_grid grid;
  Tutil.assert_done h;
  check_int "all bytes echoed" total !received;
  let st = Resilient.stats conn in
  check_string "failed over to sysio" "sysio" st.Resilient.driver;
  (!t_done, st.Resilient.switches, st.Resilient.downtime_ns)

(* E11 path: credit-windowed one-way MadIO flow (auto-grant). *)
let e11_scenario () =
  let grid, _a, b, ma, mb = madio_grid ~seed:11 () in
  Madio.set_credit_window ma 4096;
  Madio.set_credit_window mb 4096;
  let la = Madio.open_lchannel ma ~id:4 in
  let lb = Madio.open_lchannel mb ~id:4 in
  let n = 40 in
  let got = ref 0 in
  let t_done = ref (-1) in
  Madio.set_recv lb (fun ~src:_ _ ->
      incr got;
      if !got = n then t_done := Padico.now grid);
  ignore
    (Padico.spawn grid _a ~name:"src" (fun () ->
         for i = 1 to n do
           Madio.send la ~dst:(Simnet.Node.id b) (Tutil.pattern_buf ~seed:i 1024)
         done));
  Tutil.run_grid grid;
  check_int "all delivered" n !got;
  check_bool "one-way flow produced credit-only grants" true
    (Madio.credit_messages mb > 0);
  !t_done

(* E12(c) path: 300 MadIO ping-pongs on the SAN beside one
   watched-but-silent TCP connection on the LAN. The idle connection is
   never on the ready list, so it must not cost the ping-pong a poll. *)
let silent_socket_scenario () =
  let grid = Padico.create ~seed:5 () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  let san =
    Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san" [ a; b ]
  in
  let lan =
    Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ]
  in
  let sa = Sysio.get a and sb = Sysio.get b in
  let stack_a = Sysio.stack_on sa lan and stack_b = Sysio.stack_on sb lan in
  Sysio.listen sb stack_b ~port:80 (fun conn ->
      Sysio.watch sb conn (fun _ -> ()));
  ignore
    (Sysio.connect sa stack_a ~dst:(Simnet.Node.id b) ~port:80
       (fun _ _ -> ()));
  let ma = Padico.madio grid a san and mb = Padico.madio grid b san in
  let la = Madio.open_lchannel ma ~id:1 in
  let lb = Madio.open_lchannel mb ~id:1 in
  let iters = 300 in
  let rounds = ref 0 and t_done = ref (-1) in
  Madio.set_recv lb (fun ~src buf -> Madio.send lb ~dst:src buf);
  Madio.set_recv la (fun ~src:_ _ ->
      incr rounds;
      if !rounds < iters then
        Madio.send la ~dst:(Simnet.Node.id b)
          (Tutil.pattern_buf ~seed:!rounds 64)
      else t_done := Padico.now grid);
  Madio.send la ~dst:(Simnet.Node.id b) (Tutil.pattern_buf ~seed:0 64);
  Tutil.run_grid grid;
  check_int "ping-pong completed" iters !rounds;
  !t_done

(* Measured once on the default quanta; exact equality required (see
   header comment). *)
let pin_e2_ns = 38_308

let pin_e9_ns = 749_400

let pin_e10 = (5_154_957, 1, 1_105_237)

let pin_e11_ns = 432_885

let pin_silent_socket_ns = 4_527_862

let test_static_pins () =
  let e2 = e2_scenario () in
  let e9 = e9_scenario () in
  let e10_t, e10_sw, e10_down = e10_scenario () in
  let e11 = e11_scenario () in
  check_int "E2 vlink echo virtual time" pin_e2_ns e2;
  check_int "E9 madio ping-pong virtual time" pin_e9_ns e9;
  let p_t, p_sw, p_down = pin_e10 in
  check_int "E10 failover completion time" p_t e10_t;
  check_int "E10 adapter switches" p_sw e10_sw;
  check_int "E10 downtime" p_down e10_down;
  check_int "E11 credit-window virtual time" pin_e11_ns e11

let test_silent_socket_pin () =
  check_int "ping-pong beside a silent socket virtual time"
    pin_silent_socket_ns (silent_socket_scenario ())

(* ---------- small-message coalescing ---------- *)

(* Coalescing counters must agree with each other: packets saved is one
   per batched message beyond the first of each batch. *)
let check_counters m =
  check_int "packets_saved = messages_batched - batches_sent"
    (Madio.messages_batched m - Madio.batches_sent m)
    (Madio.packets_saved m)

(* Mixed sizes straddling the threshold, interleaved over two peers and
   two logical channels: every message must arrive exactly once, in order
   within its (peer, channel) flow, with boundaries intact (no merge, no
   split). *)
let test_agg_no_loss_no_reorder () =
  let grid = Padico.create ~seed:3 () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  let c = Padico.add_node grid "c" in
  let seg = Padico.add_segment grid Simnet.Presets.myrinet2000 [ a; b; c ] in
  let ma = Padico.madio grid a seg in
  let sizes = [| 8; 100; 255; 256; 300; 1000; 16; 64; 4000; 2 |] in
  let n = 200 in
  let flows =
    List.concat_map
      (fun id ->
         let tx = Madio.open_lchannel ma ~id in
         List.map
           (fun peer ->
              let rx = Madio.open_lchannel (Padico.madio grid peer seg) ~id in
              let dst = Simnet.Node.id peer in
              let sent =
                Array.init n (fun i ->
                    let sz = sizes.((i + dst + id) mod Array.length sizes) in
                    let m = Tutil.pattern_buf ~seed:((id * n) + i) (max 4 sz) in
                    Bb.set_u16 m 0 i;
                    m)
              in
              let next = ref 0 in
              Madio.set_recv rx (fun ~src:_ buf ->
                  let seq = Bb.get_u16 buf 0 in
                  check_int "in-order sequence within the flow" !next seq;
                  check_bool
                    (Printf.sprintf "message %d boundary+content intact" seq)
                    true (Bb.equal buf sent.(seq));
                  incr next);
              (tx, dst, sent, next))
           [ b; c ])
      [ 2; 3 ]
  in
  ignore
    (Padico.spawn grid a ~name:"src" (fun () ->
         for i = 0 to n - 1 do
           List.iter
             (fun (tx, dst, sent, _) -> Madio.send tx ~dst sent.(i))
             flows
         done));
  Tutil.run_grid grid;
  List.iter (fun (_, _, _, next) -> check_int "all delivered" n !next) flows;
  check_bool "packets were saved" true (Madio.packets_saved ma > 0);
  check_counters ma

let agg_records () =
  List.filter_map
    (fun r ->
       match r.Trace.ev with
       | Padico_obs.Event.Agg { action; msgs; _ } ->
         Some (r.Trace.ts, action, msgs)
       | _ -> None)
    (Trace.records ())

(* Run [f] with tracing on; return its result and the Agg records. *)
let traced f =
  Trace.enable ();
  Fun.protect ~finally:(fun () -> Trace.disable (); Trace.clear ())
    (fun () ->
       let v = f () in
       (v, agg_records ()))

(* A lone 64 B message, sent at virtual time 0 on an idle Myrinet pair,
   on the uncoalesced path (the E12(b) figure). *)
let pin_lone_ns = 7_494

(* A lone message finds its flow idle and leaves at once: no coalescing
   delay, no coalescing trace, no batch counted. *)
let test_agg_lone_no_delay () =
  let grid, a, b, ma, mb = madio_grid ~seed:4 () in
  let la = Madio.open_lchannel ma ~id:1 in
  let lb = Madio.open_lchannel mb ~id:1 in
  let t = ref (-1) in
  Madio.set_recv lb (fun ~src:_ _ -> t := Padico.now grid);
  let (), aggs =
    traced (fun () ->
        ignore
          (Padico.spawn grid a ~name:"src" (fun () ->
               Madio.send la ~dst:(Simnet.Node.id b)
                 (Tutil.pattern_buf ~seed:1 64)));
        Tutil.run_grid grid)
  in
  check_int "delivered on the uncoalesced path's time" pin_lone_ns !t;
  check_int "no Agg trace records" 0 (List.length aggs);
  check_int "messages_batched" 0 (Madio.messages_batched ma);
  check_int "batches_sent" 0 (Madio.batches_sent ma)

(* Two messages sent right behind a first one wait for its send
   completion — Madeleine's [on_tx], once the combined header and the
   Madeleine send are charged — and then leave together as one packet. *)
let test_agg_cork () =
  let grid, a, b, ma, mb = madio_grid ~seed:5 () in
  let la = Madio.open_lchannel ma ~id:1 in
  let lb = Madio.open_lchannel mb ~id:1 in
  let got = ref [] in
  Madio.set_recv lb (fun ~src:_ buf -> got := Bb.get_u8 buf 0 :: !got);
  let msg i =
    let m = Tutil.pattern_buf ~seed:i 32 in
    Bb.set_u8 m 0 i;
    m
  in
  let (), aggs =
    traced (fun () ->
        ignore
          (Padico.spawn grid a ~name:"src" (fun () ->
               for i = 1 to 3 do
                 Madio.send la ~dst:(Simnet.Node.id b) (msg i)
               done));
        Tutil.run_grid grid)
  in
  check_bool "delivered once, in order" true (List.rev !got = [ 1; 2; 3 ]);
  let queued = List.filter (fun (_, act, _) -> act = "queue") aggs in
  check_int "one queue record: the follower joining a non-empty batch" 1
    (List.length queued);
  (match List.filter (fun (_, act, _) -> act <> "queue") aggs with
   | [ (ts, "flush.cork", msgs) ] ->
     check_int "batch size" 2 msgs;
     check_int "batch leaves at the first packet's send completion"
       (Calib.madio_combined_ns + Calib.mad_send_ns) ts
   | _ -> Alcotest.fail "expected exactly one flush.cork record");
  check_int "Madeleine packets" 2
    (Madeleine.Mad.messages_sent (Madio.mad ma));
  check_int "batches_sent" 1 (Madio.batches_sent ma);
  check_int "messages_batched" 2 (Madio.messages_batched ma);
  check_counters ma

(* The throughput claim: a 64 B burst puts at most 1/30 as many packets
   on the wire as messages, every message intact and in order. *)
let test_agg_burst_packets () =
  let grid, a, b, ma, mb = madio_grid ~seed:6 () in
  let la = Madio.open_lchannel ma ~id:3 in
  let lb = Madio.open_lchannel mb ~id:3 in
  let n = 2_000 in
  let got = ref 0 in
  Madio.set_recv lb (fun ~src:_ buf ->
      incr got;
      check_bool "burst message intact and in order" true
        (Bb.equal buf (Tutil.pattern_buf ~seed:!got 64)));
  ignore
    (Padico.spawn grid a ~name:"src" (fun () ->
         for i = 1 to n do
           Madio.send la ~dst:(Simnet.Node.id b) (Tutil.pattern_buf ~seed:i 64)
         done));
  Tutil.run_grid grid;
  check_int "all delivered" n !got;
  let packets = Madeleine.Mad.messages_sent (Madio.mad ma) in
  check_bool
    (Printf.sprintf "%d packets for %d messages (<= 1/30)" packets n)
    true
    (packets * 30 <= n);
  check_counters ma

(* A fault plan drops the Myrinet segment while a batch waits behind an
   in-flight packet. No exception escapes; the packet and the batch are
   lost with the carrier (fail-fast SAN); after link-up the flow sends at
   once again — its in-flight count did not stay stuck. *)
let test_agg_link_down () =
  let grid = Padico.create ~seed:8 () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  let san =
    Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san" [ a; b ]
  in
  let ma = Padico.madio grid a san and mb = Padico.madio grid b san in
  let la = Madio.open_lchannel ma ~id:1 in
  let lb = Madio.open_lchannel mb ~id:1 in
  let got = ref [] in
  Madio.set_recv lb (fun ~src:_ buf ->
      got := (Bb.get_u8 buf 0, Padico.now grid) :: !got);
  let msg i =
    let m = Tutil.pattern_buf ~seed:i 64 in
    Bb.set_u8 m 0 i;
    m
  in
  (match Plan.parse "at 1ms link-down san\nat 2ms link-up san\n" with
   | Ok plan -> ignore (Inject.apply (Padico.net grid) plan)
   | Error e -> Alcotest.failf "plan: %s" e);
  let sim = Simnet.Node.sim a and dst = Simnet.Node.id b in
  let h =
    Padico.spawn grid a ~name:"src" (fun () ->
        (* The first packet's send completion falls after the link-down. *)
        Engine.Proc.sleep sim (Time.ms 1 - 100);
        for i = 1 to 3 do
          Madio.send la ~dst (msg i)
        done;
        Engine.Proc.sleep sim (Time.ms 2);
        Madio.send la ~dst (msg 4))
  in
  Tutil.run_grid grid;
  Tutil.assert_done h;
  match !got with
  | [ (4, t) ] ->
    check_int "after link-up a lone message leaves at once"
      (Time.ms 3 - 100 + pin_lone_ns) t
  | l ->
    Alcotest.failf "expected only message 4, got [%s]"
      (String.concat "; " (List.map (fun (i, _) -> string_of_int i) l))

(* ---------- Bytebuf slab pool ---------- *)

let test_bytebuf_pool () =
  Bb.Pool.reset ();
  let a = Bb.Pool.alloc 16 in
  check_int "first alloc is a miss" 1 (Bb.Pool.pool_misses ());
  Bb.Pool.release a;
  check_int "released slab pooled" 1 (Bb.Pool.pooled ());
  let b = Bb.Pool.alloc 32 in
  check_int "second alloc reuses the slab" 1 (Bb.Pool.pool_hits ());
  check_int "pool drained" 0 (Bb.Pool.pooled ());
  check_int "requested length honoured" 32 (Bb.length b);
  (* Oversize requests bypass the pool entirely. *)
  let big = Bb.Pool.alloc (Bb.Pool.slab + 1) in
  check_int "oversize alloc is a miss" 2 (Bb.Pool.pool_misses ());
  Bb.Pool.release big;
  check_int "oversize buffer not pooled" 0 (Bb.Pool.pooled ());
  (* Sub-slices must not re-enter the pool (offset no longer 0). *)
  let c = Bb.Pool.alloc 64 in
  Bb.Pool.release (Bb.sub c 8 8);
  check_int "sub-slice not pooled" 0 (Bb.Pool.pooled ())

(* ---------- Streamq O(1) front slot ---------- *)

let test_streamq_split_pops () =
  let q = Vlink.Streamq.create () in
  let src = Tutil.pattern_buf ~seed:1 10_000 in
  (* Push as uneven chunks. *)
  let off = ref 0 in
  let sizes = [ 1; 37; 1024; 3; 4096; 500; 4339 ] in
  List.iter
    (fun sz ->
       Vlink.Streamq.push q (Bb.sub src !off sz);
       off := !off + sz)
    sizes;
  check_int "pushed everything" 10_000 (Vlink.Streamq.length q);
  (* Pop with maxima that force head splits, reassemble, compare. *)
  let out = Bb.create 10_000 in
  let filled = ref 0 in
  let maxes = [| 7; 1000; 13; 64; 2048; 1; 511 |] in
  let i = ref 0 in
  while Vlink.Streamq.length q > 0 do
    (match Vlink.Streamq.pop q ~max:maxes.(!i mod Array.length maxes) with
     | Some part ->
       Bb.blit_dma ~src:part ~src_off:0 ~dst:out ~dst_off:!filled
         ~len:(Bb.length part);
       filled := !filled + Bb.length part
     | None -> Alcotest.fail "pop returned None on non-empty queue");
    incr i
  done;
  check_int "drained everything" 10_000 !filled;
  check_bool "byte stream intact across split pops" true (Bb.equal out src)

let test_streamq_pop_exact_across_chunks () =
  let q = Vlink.Streamq.create () in
  let src = Tutil.pattern_buf ~seed:9 600 in
  Vlink.Streamq.push q (Bb.sub src 0 100);
  Vlink.Streamq.push q (Bb.sub src 100 200);
  Vlink.Streamq.push q (Bb.sub src 300 300);
  let first = Vlink.Streamq.pop_exact q 250 in
  let second = Vlink.Streamq.pop_exact q 350 in
  check_bool "first exact read spans chunks" true
    (Bb.equal first (Bb.sub src 0 250));
  check_bool "second exact read gets the remainder" true
    (Bb.equal second (Bb.sub src 250 350));
  check_int "queue empty" 0 (Vlink.Streamq.length q)

let () =
  Alcotest.run "sched"
    [ ("pins",
       [ Alcotest.test_case "static policy E2/E9/E10/E11 byte-identical"
           `Quick test_static_pins;
         Alcotest.test_case "madio ping-pong beside a silent socket" `Quick
           test_silent_socket_pin ]);
      ("aggregation",
       [ Alcotest.test_case "no loss, no reorder, boundaries" `Quick
           test_agg_no_loss_no_reorder;
         Alcotest.test_case "lone message: no coalescing delay" `Quick
           test_agg_lone_no_delay;
         Alcotest.test_case "batch leaves at send completion" `Quick
           test_agg_cork;
         Alcotest.test_case "64-byte burst: <= 1/30 packets/msg" `Quick
           test_agg_burst_packets;
         Alcotest.test_case "link down while a batch waits" `Quick
           test_agg_link_down ]);
      ("pool",
       [ Alcotest.test_case "slab reuse and bypass" `Quick test_bytebuf_pool ]);
      ("streamq",
       [ Alcotest.test_case "split pops keep the stream intact" `Quick
           test_streamq_split_pops;
         Alcotest.test_case "pop_exact across chunks" `Quick
           test_streamq_pop_exact_across_chunks ]);
    ]

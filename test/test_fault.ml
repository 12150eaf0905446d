(* Padico_fault: plans, injection, timeouts, backoff, failover. *)

module Bb = Engine.Bytebuf
module Sim = Engine.Sim
module Time = Engine.Time
module Seg = Simnet.Segment
module Lm = Simnet.Linkmodel
module Vl = Vlink.Vl
module Plan = Padico_fault.Plan
module Inject = Padico_fault.Inject
module Backoff = Padico_fault.Backoff
module Obs = Padico_obs

let check_int = Tutil.check_int

let check_bool = Tutil.check_bool

let check_string = Tutil.check_string

(* ---------- plan parsing ---------- *)

let test_plan_parse () =
  let text =
    {|# a comment
at 5ms   link-down san
at 60ms  link-up san
at 1ms   loss-burst wan 0.3 for 10ms
at 1ms   latency-spike wan +8ms for 5ms
at 2ms   crash b
at 4ms   restart b
at 2ms   partition a1,a2 | b1,b2
at 6ms   heal
|}
  in
  match Plan.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok plan ->
    check_int "8 events" 8 (List.length plan);
    (match plan with
     | { Plan.at_ns; action = Plan.Link_down l } :: _ ->
       check_int "5ms" (Time.ms 5) at_ns;
       check_string "san" "san" l
     | _ -> Alcotest.fail "first event should be link-down");
    (match List.nth plan 2 with
     | { Plan.action = Plan.Loss_burst { link; loss; duration_ns }; at_ns } ->
       check_string "wan" "wan" link;
       check_bool "loss 0.3" true (abs_float (loss -. 0.3) < 1e-9);
       check_int "for 10ms" (Time.ms 10) duration_ns;
       check_int "at 1ms" (Time.ms 1) at_ns
     | _ -> Alcotest.fail "third event should be loss-burst");
    match List.nth plan 6 with
    | { Plan.action = Plan.Partition { group_a; group_b }; _ } ->
      check_int "2 in a" 2 (List.length group_a);
      check_string "b1 first" "b1" (List.hd group_b)
    | _ -> Alcotest.fail "seventh event should be partition"

let test_plan_parse_errors () =
  (match Plan.parse "at 5ms link-down" with
   | Error e -> check_bool "names line" true (String.length e > 0)
   | Ok _ -> Alcotest.fail "missing target should not parse");
  (match Plan.parse "at 1ms loss-burst l 1.5 for 1ms" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "loss 1.5 should not parse");
  match Plan.parse "banana" with
  | Error e ->
    check_bool "mentions line 1" true
      (try
         ignore (Str.search_forward (Str.regexp "1") e 0);
         true
       with Not_found -> false)
  | Ok _ -> Alcotest.fail "garbage should not parse"

(* ---------- linkmodel validation ---------- *)

let test_linkmodel_validate () =
  let base = Simnet.Presets.ethernet100 in
  (match Lm.validate { base with Lm.loss = 1.5 } with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "loss > 1 must be rejected");
  (match Lm.validate { base with Lm.mtu = 0 } with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "mtu = 0 must be rejected");
  (match Lm.validate { base with Lm.bandwidth_bps = -1.0 } with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative bandwidth must be rejected");
  (* every preset passes its own validation by construction *)
  ignore (Lm.validate Simnet.Presets.myrinet2000);
  ignore (Lm.validate (Simnet.Presets.transcontinental_loss 0.01))

(* ---------- segment fault overlay ---------- *)

let raw ~src ~dst n =
  Simnet.Packet.make ~src ~dst ~proto:99 ~size:n
    (Simnet.Packet.Raw (Bb.create n))

let test_link_down_drops () =
  let net, a, b, seg = Tutil.pair ~seed:5 Simnet.Presets.ethernet100 in
  let got = ref 0 in
  Seg.set_handler seg b ~proto:99 (fun _ -> incr got);
  let send () =
    Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 100)
  in
  send ();
  Seg.set_down seg true;
  check_bool "is_down" true (Seg.is_down seg a);
  send ();
  send ();
  Seg.set_down seg false;
  send ();
  Tutil.run_net net;
  check_int "two delivered" 2 !got;
  check_int "two faulted" 2 (Seg.frames_faulted seg)

let test_node_crash_blocks_traffic () =
  let net, a, b, seg = Tutil.pair ~seed:5 Simnet.Presets.ethernet100 in
  let got = ref 0 in
  Seg.set_handler seg b ~proto:99 (fun _ -> incr got);
  let send () =
    Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 100)
  in
  (* The receiver's state counts when the frame arrives: this one lands
     while b is down, the next after its restart. *)
  Simnet.Node.set_up b false;
  send ();
  Tutil.run_net net;
  Simnet.Node.set_up b true;
  send ();
  Tutil.run_net net;
  check_int "only post-restart frame" 1 !got;
  check_int "one faulted" 1 (Seg.frames_faulted seg)

let test_link_watcher_fires () =
  let _net, a, _b, seg = Tutil.pair ~seed:5 Simnet.Presets.ethernet100 in
  let states = ref [] in
  Seg.on_link_state seg a (fun up -> states := up :: !states);
  Seg.set_down seg true;
  Seg.set_down seg true (* no change, no event *);
  Seg.set_down seg false;
  check_bool "down then up" true (!states = [ true; false ])

let test_injector_schedules () =
  let net, a, b, seg = Tutil.pair ~seed:5 Simnet.Presets.ethernet100 in
  let got = ref 0 in
  Seg.set_handler seg b ~proto:99 (fun _ -> incr got);
  let plan =
    [ { Plan.at_ns = Time.ms 1; action = Plan.Link_down "net0" };
      { Plan.at_ns = Time.ms 3; action = Plan.Link_up "net0" } ]
  in
  let seg_name = Seg.name seg in
  let plan =
    List.map
      (fun e ->
         { e with
           Plan.action =
             (match e.Plan.action with
              | Plan.Link_down _ -> Plan.Link_down seg_name
              | Plan.Link_up _ -> Plan.Link_up seg_name
              | a -> a) })
      plan
  in
  let inj = Inject.apply net plan in
  check_int "2 pending" 2 (Inject.pending inj);
  (* send at 2ms (down) and 4ms (up again) *)
  Sim.at (Simnet.Net.sim net) (Time.ms 2) (fun () ->
      Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 10));
  Sim.at (Simnet.Net.sim net) (Time.ms 4) (fun () ->
      Seg.send seg (raw ~src:(Simnet.Node.id a) ~dst:(Simnet.Node.id b) 10));
  Tutil.run_net net;
  check_int "only the 4ms frame" 1 !got;
  check_int "all fired" 2 (Inject.fired inj);
  check_int "none pending" 0 (Inject.pending inj)

let test_injector_unknown_link () =
  let net, _a, _b, _seg = Tutil.pair ~seed:5 Simnet.Presets.ethernet100 in
  match
    Inject.apply net [ { Plan.at_ns = 0; action = Plan.Link_down "nope" } ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown link must be rejected eagerly"

(* ---------- backoff ---------- *)

(* Explicit let: [::] evaluates right-to-left, which would reverse the
   attempt order. *)
let rec take n b =
  if n = 0 then []
  else
    let d = Backoff.next b in
    d :: take (n - 1) b

let test_backoff_determinism () =
  let mk () =
    Backoff.create ~base_ns:1_000 ~factor:2.0 ~max_ns:16_000 ~jitter:0.25
      ~seed:99 ()
  in
  let s1 = take 10 (mk ()) and s2 = take 10 (mk ()) in
  check_bool "same seed, same delays" true (s1 = s2)

let test_backoff_bounds () =
  let b =
    Backoff.create ~base_ns:1_000 ~factor:2.0 ~max_ns:16_000 ~jitter:0.25
      ~seed:7 ()
  in
  List.iteri
    (fun i d ->
       let ideal = float_of_int (min 16_000 (1_000 * (1 lsl (min i 20)))) in
       check_bool
         (Printf.sprintf "delay %d within jitter of %f" d ideal)
         true
         (float_of_int d >= (0.75 *. ideal) -. 1.0
          && float_of_int d <= (1.25 *. ideal) +. 1.0))
    (take 12 b)

let test_backoff_no_jitter_reset () =
  let b =
    Backoff.create ~base_ns:500 ~factor:3.0 ~max_ns:1_000_000 ~jitter:0.0
      ~seed:1 ()
  in
  check_int "attempt 0" 500 (Backoff.next b);
  check_int "attempt 1" 1_500 (Backoff.next b);
  check_int "attempt 2" 4_500 (Backoff.next b);
  Backoff.reset b;
  check_int "reset to base" 500 (Backoff.next b)

(* ---------- clock timers ---------- *)

(* Every deadline is one entry of its clock's event heap. Each case runs
   on the simulator's virtual clock and on a Hostio loop's wall clock;
   [drain] runs the clock's owner until nothing is queued, and [queued]
   counts what is left. *)
type owner = {
  name : string;
  clk : Engine.Clock.t;
  drain : unit -> unit;
  queued : unit -> int;
}

let on_both_clocks f () =
  let sim = Sim.create () in
  f { name = "sim"; clk = Sim.clock sim; drain = (fun () -> Sim.run sim);
      queued = (fun () -> Sim.pending sim) };
  let loop = Hostio.Loop.create () in
  f { name = "loop"; clk = Hostio.Loop.clock loop;
      drain = (fun () -> Hostio.Loop.run loop);
      queued = (fun () -> Hostio.Loop.live_timers loop) }

(* A deadline fires at [now + after], never early; on the virtual clock
   exactly then. Same-instant timers fire in arm order, after what was
   queued for that instant before them. *)
let test_clock_fires_at_deadline =
  on_both_clocks (fun o ->
      let module C = Engine.Clock in
      let after = Time.ms 2 in
      let armed_at = ref 0 and fired = ref [] in
      let record tag () = fired := (tag, C.now o.clk) :: !fired in
      C.after o.clk 1_000 (fun () ->
          armed_at := C.now o.clk;
          C.after o.clk after (record "queued");
          ignore (C.arm o.clk after (record "a"));
          ignore (C.arm o.clk after (record "b"));
          ignore (C.arm o.clk (-5) (record "now")));
      o.drain ();
      let fired = List.rev !fired in
      Alcotest.(check (list string)) (o.name ^ ": order")
        [ "now"; "queued"; "a"; "b" ] (List.map fst fired);
      let at tag = List.assoc tag fired in
      if C.is_virtual o.clk then begin
        check_int "negative after clamps to now" 1_000 (at "now");
        check_int "exact deadline" (1_000 + after) (at "a");
        check_int "same instant" (1_000 + after) (at "b")
      end
      else check_bool "never early" true (at "a" - !armed_at >= after);
      check_int (o.name ^ ": nothing queued") 0 (o.queued ()))

let test_clock_cancel_idempotent =
  on_both_clocks (fun o ->
      let fired = ref false in
      let tm = Engine.Clock.arm o.clk 2_000 (fun () -> fired := true) in
      check_int (o.name ^ ": armed") 1 (o.queued ());
      Engine.Clock.cancel tm;
      check_int (o.name ^ ": cancel dequeues") 0 (o.queued ());
      Engine.Clock.cancel tm;
      o.drain ();
      check_bool (o.name ^ ": cancelled timer never fires") false !fired)

let test_clock_none_inert =
  on_both_clocks (fun o ->
      let fired = ref false in
      ignore (Engine.Clock.arm o.clk 1_000 (fun () -> fired := true));
      Engine.Clock.cancel Engine.Clock.none;
      Engine.Clock.cancel Engine.Clock.none;
      check_int (o.name ^ ": armed timer kept") 1 (o.queued ());
      o.drain ();
      check_bool (o.name ^ ": armed timer fires") true !fired)

(* A handle outlives its entry: cancelling a fired or cancelled timer
   must not take out the later timer that reuses its heap slot. *)
let test_clock_stale_handle =
  on_both_clocks (fun o ->
      let module C = Engine.Clock in
      let fired = ref [] in
      let fire tag () = fired := tag :: !fired in
      let gone = C.arm o.clk 1_000 (fire "cancelled") in
      C.cancel gone;
      ignore (C.arm o.clk 1_000 (fire "after cancel"));
      C.cancel gone;
      check_int (o.name ^ ": cancelled handle is stale") 1 (o.queued ());
      o.drain ();
      let spent = C.arm o.clk 1_000 (fire "spent") in
      o.drain ();
      ignore (C.arm o.clk 1_000 (fire "after firing"));
      C.cancel spent;
      check_int (o.name ^ ": fired handle is stale") 1 (o.queued ());
      o.drain ();
      Alcotest.(check (list string)) (o.name ^ ": fired")
        [ "after cancel"; "spent"; "after firing" ] (List.rev !fired))

(* 10k timers armed on [Sim.clock] and cancelled leave no event to
   dispatch. *)
let test_cancelled_leave_queue () =
  let sim = Sim.create () in
  let clk = Sim.clock sim in
  let fired = ref 0 in
  let timers =
    List.init 10_000 (fun i ->
        Engine.Clock.arm clk (Time.ms 1 + i) (fun () -> incr fired))
  in
  check_int "armed" 10_000 (Sim.pending sim);
  List.iter Engine.Clock.cancel timers;
  check_int "nothing pending" 0 (Sim.pending sim);
  let before = Sim.events_dispatched sim in
  Sim.run sim;
  check_int "no event dispatched" 0 (Sim.events_dispatched sim - before);
  check_int "none fired" 0 !fired;
  check_int "clock unmoved" 0 (Sim.now sim)

(* ---------- selector exclusion ---------- *)

let san_lan_grid ?(seed = 42) () =
  let grid = Padico.create ~seed () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  let san =
    Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san" [ a; b ]
  in
  let lan =
    Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ]
  in
  (grid, a, b, san, lan)

let test_selector_exclude () =
  let grid, a, b, san, lan = san_lan_grid () in
  let net = Padico.net grid in
  let c1 = Selector.choose net ~src:a ~dst:b in
  check_string "prefers SAN" "madio" c1.Selector.driver;
  let c2 = Selector.choose ~exclude:[ san ] net ~src:a ~dst:b in
  check_string "falls back to sysio" "sysio" c2.Selector.driver;
  Seg.set_down san true;
  let c3 = Selector.choose net ~src:a ~dst:b in
  check_string "down SAN skipped" "sysio" c3.Selector.driver;
  Seg.set_down san false;
  (match Selector.choose ~exclude:[ san; lan ] net ~src:a ~dst:b with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "all links excluded must fail")

(* ---------- Vl timeouts ---------- *)

let test_vl_read_timeout () =
  let grid, a, b, _seg = Tutil.grid_pair ~seed:7 Simnet.Presets.ethernet100 in
  Padico.listen grid b ~port:4000 (fun _vl -> () (* silent peer *));
  let h =
    Padico.spawn grid a ~name:"client" (fun () ->
        let vl = Padico.connect grid ~src:a ~dst:b ~port:4000 in
        (match Vl.await_connected vl with
         | Ok () -> ()
         | Error m -> Alcotest.failf "connect: %s" m);
        let t0 = Padico.now grid in
        match Vl.await (Vl.post_read ~timeout_ns:(Time.ms 5) vl (Bb.create 64)) with
        | Vl.Error "timeout" ->
          check_bool "not before the deadline" true
            (Padico.now grid - t0 >= Time.ms 5)
        | Vl.Error m -> Alcotest.failf "unexpected error %s" m
        | Vl.Done _ | Vl.Eof | Vl.Again -> Alcotest.fail "read should time out")
  in
  Tutil.run_grid grid;
  Tutil.assert_done h

let test_vl_timeout_not_fired_when_served () =
  let grid, a, b, _seg = Tutil.grid_pair ~seed:7 Simnet.Presets.ethernet100 in
  Padico.listen grid b ~port:4001 (fun vl ->
      ignore (Vl.post_write vl (Tutil.pattern_buf ~seed:1 64)));
  let h =
    Padico.spawn grid a ~name:"client" (fun () ->
        let vl = Padico.connect grid ~src:a ~dst:b ~port:4001 in
        (match Vl.await_connected vl with
         | Ok () -> ()
         | Error m -> Alcotest.failf "connect: %s" m);
        match
          Vl.await (Vl.post_read ~timeout_ns:(Time.sec 1) vl (Bb.create 64))
        with
        | Vl.Done n -> check_bool "got data" true (n > 0)
        | Vl.Eof | Vl.Again -> Alcotest.fail "eof"
        | Vl.Error m -> Alcotest.failf "error %s" m)
  in
  Tutil.run_grid grid;
  Tutil.assert_done h

let test_vl_queued_timeout_does_not_block_successor () =
  (* Two reads posted; the first times out before any data, then data for
     the second arrives: the dead head must not swallow it. *)
  let grid, a, b, _seg = Tutil.grid_pair ~seed:7 Simnet.Presets.ethernet100 in
  Padico.listen grid b ~port:4002 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"late-writer" (fun () ->
             Engine.Proc.sleep (Simnet.Net.sim (Padico.net grid)) (Time.ms 10);
             ignore (Vl.post_write vl (Tutil.pattern_buf ~seed:2 32)))));
  let h =
    Padico.spawn grid a ~name:"client" (fun () ->
        let vl = Padico.connect grid ~src:a ~dst:b ~port:4002 in
        (match Vl.await_connected vl with
         | Ok () -> ()
         | Error m -> Alcotest.failf "connect: %s" m);
        let r1 = Vl.post_read ~timeout_ns:(Time.ms 2) vl (Bb.create 64) in
        let r2 = Vl.post_read ~timeout_ns:(Time.sec 1) vl (Bb.create 64) in
        (match Vl.await r1 with
         | Vl.Error "timeout" -> ()
         | _ -> Alcotest.fail "first read should time out");
        match Vl.await r2 with
        | Vl.Done n -> check_int "successor got the data" 32 n
        | _ -> Alcotest.fail "second read should complete")
  in
  Tutil.run_grid grid;
  Tutil.assert_done h

(* ---------- Peer_closed leaves no request pending (madio) ---------- *)

let test_madio_write_after_peer_close () =
  let grid, a, b, _seg =
    Tutil.grid_pair ~seed:3 Simnet.Presets.myrinet2000
  in
  Padico.listen grid b ~port:4100 (fun vl ->
      ignore (Padico.spawn grid b ~name:"closer" (fun () -> Vl.close vl)));
  let h =
    Padico.spawn grid a ~name:"client" (fun () ->
        let vl = Padico.connect grid ~src:a ~dst:b ~port:4100 in
        (match Vl.await_connected vl with
         | Ok () -> ()
         | Error m -> Alcotest.failf "connect: %s" m);
        check_string "over madio" "madio" (Vl.driver_name vl);
        (* Eof on a read = the CLOSE has arrived. *)
        (match Vl.await (Vl.post_read vl (Bb.create 16)) with
         | Vl.Eof -> ()
         | _ -> Alcotest.fail "expected Eof after peer close");
        (* The old bug: this write sat in the queue forever. *)
        match Vl.await (Vl.post_write vl (Tutil.pattern_buf ~seed:3 128)) with
        | Vl.Error _ -> ()
        | Vl.Done _ | Vl.Eof | Vl.Again ->
          Alcotest.fail "write after peer close must fail")
  in
  Tutil.run_grid grid;
  Tutil.assert_done h

(* ---------- failover ---------- *)

let echo_server grid node vl =
  ignore
    (Padico.spawn grid node ~name:"echo" (fun () ->
         let buf = Bb.create 65_536 in
         let rec loop () =
           match Vl.await (Vl.post_read vl buf) with
           | Vl.Done n ->
             (match Vl.await (Vl.post_write vl (Bb.sub buf 0 n)) with
              | Vl.Done _ -> loop ()
              | Vl.Eof | Vl.Again | Vl.Error _ -> ())
           | Vl.Eof | Vl.Again | Vl.Error _ -> ()
         in
         loop ()))

let run_failover_transfer ~seed ~total ~plan_text () =
  let grid, a, b, _san, _lan = san_lan_grid ~seed () in
  Resilient.listen grid b ~port:9000 (echo_server grid b);
  let conn = Resilient.connect grid ~src:a ~dst:b ~port:9000 in
  let cvl = Resilient.vl conn in
  let received = ref 0 in
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
        in
        rd ())
  in
  (match Plan.parse plan_text with
   | Ok plan -> ignore (Inject.apply (Padico.net grid) plan)
   | Error e -> Alcotest.failf "plan: %s" e);
  Tutil.run_grid grid;
  Tutil.assert_done h;
  check_int "all bytes echoed" total !received;
  Resilient.stats conn

(* The plain SAN->LAN transfer e2e moved to the conformance kit: the
   resilient fixture's obligations run under a link-down plan in
   test_check.ml (and under every schedule policy via `padico_cli check`).
   What stays here is what the kit does not assert: the stats counters
   and the trace/determinism contract. *)

let test_resilient_clean_run_no_failover () =
  let st =
    run_failover_transfer ~seed:42 ~total:200_000 ~plan_text:"" ()
  in
  check_int "no switches" 0 st.Resilient.switches;
  check_int "no retries" 0 st.Resilient.retries;
  check_int "no downtime" 0 st.Resilient.downtime_ns;
  check_string "still on the SAN" "madio" st.Resilient.driver

let test_failover_events_and_determinism () =
  (* Two identical runs with tracing on must export byte-identical traces,
     fault plan, retries, failover and all. *)
  let run () =
    Obs.Trace.enable ();
    let st =
      run_failover_transfer ~seed:11 ~total:300_000
        ~plan_text:"at 1ms link-down san\n" ()
    in
    let s = Obs.Export_chrome.to_string () in
    Obs.Trace.disable ();
    Obs.Trace.clear ();
    (st, s)
  in
  let st, t1 = run () in
  let _, t2 = run () in
  check_bool "traces byte-identical" true (String.equal t1 t2);
  check_bool "switched adapters" true (st.Resilient.switches >= 1);
  check_string "running on sysio" "sysio" st.Resilient.driver;
  check_bool "retried" true (st.Resilient.retries >= 1);
  check_bool "downtime measured" true (st.Resilient.downtime_ns > 0);
  check_bool "has a failover event" true
    (try
       ignore (Str.search_forward (Str.regexp "resilience.failover") t1 0);
       true
     with Not_found -> false);
  check_bool "has retry events" true
    (try
       ignore (Str.search_forward (Str.regexp "resilience.retry") t1 0);
       true
     with Not_found -> false);
  check_bool "has fault events" true
    (try
       ignore (Str.search_forward (Str.regexp "fault.link-down") t1 0);
       true
     with Not_found -> false)

(* ---------- property: every posted request completes under faults ------- *)

let random_plan rng seg_name =
  let n = 1 + Engine.Rng.int rng 4 in
  let events = ref [] in
  for _ = 1 to n do
    let at_ns = Time.ms (1 + Engine.Rng.int rng 30) in
    let action =
      match Engine.Rng.int rng 3 with
      | 0 ->
        Plan.Loss_burst
          { link = seg_name; loss = 0.2 +. (0.6 *. Engine.Rng.float rng 1.0);
            duration_ns = Time.ms (1 + Engine.Rng.int rng 10) }
      | 1 ->
        Plan.Latency_spike
          { link = seg_name; add_ns = Time.ms (1 + Engine.Rng.int rng 5);
            duration_ns = Time.ms (1 + Engine.Rng.int rng 10) }
      | _ -> Plan.Link_down seg_name
    in
    events := { Plan.at_ns; action } :: !events;
    (* every link-down heals later so TCP can finish retransmitting *)
    match action with
    | Plan.Link_down _ ->
      events :=
        { Plan.at_ns = at_ns + Time.ms (1 + Engine.Rng.int rng 5);
          action = Plan.Link_up seg_name }
        :: !events
    | _ -> ()
  done;
  !events

let prop_requests_complete =
  QCheck.Test.make ~name:"every posted request completes under faults"
    ~count:15
    QCheck.(int_bound 10_000)
    (fun seed ->
       let grid, a, b, seg =
         Tutil.grid_pair ~seed Simnet.Presets.ethernet100
       in
       let rng = Engine.Rng.create seed in
       ignore (Inject.apply (Padico.net grid) (random_plan rng (Seg.name seg)));
       Padico.listen grid b ~port:5000 (echo_server grid b);
       let reqs = ref [] in
       ignore
         (Padico.spawn grid a ~name:"client" (fun () ->
              let vl = Padico.connect grid ~src:a ~dst:b ~port:5000 in
              match Vl.await_connected vl with
              | Error _ -> () (* connect itself may die: nothing posted *)
              | Ok () ->
                for i = 0 to 9 do
                  reqs :=
                    Vl.post_write ~timeout_ns:(Time.ms 100) vl
                      (Tutil.pattern_buf ~seed:i 512)
                    :: !reqs;
                  reqs :=
                    Vl.post_read ~timeout_ns:(Time.ms 100) vl (Bb.create 512)
                    :: !reqs
                done));
       Tutil.run_grid grid;
       List.for_all (fun r -> Vl.poll r <> None) !reqs)

(* ---------- suite ---------- *)

let () =
  Alcotest.run "fault"
    [ ( "plan",
        [ Alcotest.test_case "parse" `Quick test_plan_parse;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors ] );
      ( "linkmodel",
        [ Alcotest.test_case "validate" `Quick test_linkmodel_validate ] );
      ( "overlay",
        [ Alcotest.test_case "link down drops" `Quick test_link_down_drops;
          Alcotest.test_case "node crash blocks" `Quick
            test_node_crash_blocks_traffic;
          Alcotest.test_case "link watcher" `Quick test_link_watcher_fires ] );
      ( "inject",
        [ Alcotest.test_case "scheduled window" `Quick test_injector_schedules;
          Alcotest.test_case "unknown link" `Quick test_injector_unknown_link
        ] );
      ( "backoff",
        [ Alcotest.test_case "determinism" `Quick test_backoff_determinism;
          Alcotest.test_case "bounds" `Quick test_backoff_bounds;
          Alcotest.test_case "no jitter + reset" `Quick
            test_backoff_no_jitter_reset ] );
      ( "clock",
        [ Alcotest.test_case "fires at now + after" `Quick
            test_clock_fires_at_deadline;
          Alcotest.test_case "cancel is idempotent" `Quick
            test_clock_cancel_idempotent;
          Alcotest.test_case "none is inert" `Quick test_clock_none_inert;
          Alcotest.test_case "stale handle spares a reused slot" `Quick
            test_clock_stale_handle;
          Alcotest.test_case "cancelled timers leave the sim queue" `Quick
            test_cancelled_leave_queue ] );
      ( "selector",
        [ Alcotest.test_case "exclude + down" `Quick test_selector_exclude ] );
      ( "vl-timeout",
        [ Alcotest.test_case "read times out" `Quick test_vl_read_timeout;
          Alcotest.test_case "served in time" `Quick
            test_vl_timeout_not_fired_when_served;
          Alcotest.test_case "dead head skipped" `Quick
            test_vl_queued_timeout_does_not_block_successor ] );
      ( "peer-closed",
        [ Alcotest.test_case "madio write fails, not hangs" `Quick
            test_madio_write_after_peer_close ] );
      ( "failover",
        [ Alcotest.test_case "clean run" `Quick
            test_resilient_clean_run_no_failover;
          Alcotest.test_case "events + determinism" `Quick
            test_failover_events_and_determinism ] );
      Tutil.qsuite "properties" [ prop_requests_complete ] ]

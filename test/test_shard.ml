(* Conservative parallel engine (Engine.Shard): determinism across domain
   counts, and the lookahead-safety invariant the protocol rests on.

   The load-bearing property throughout: outcomes are a function of the
   shard *partition*, never of the *worker count*. Every test here builds
   the same sharded scenario several times, runs it under 1 / 2 / 4 / 8
   domains, and compares complete digests — virtual end time, payload
   checksums, per-segment frame counters, per-shard execution counts. *)

module Sim = Engine.Sim
module Shard = Engine.Shard
module Rng = Engine.Rng
module Bb = Engine.Bytebuf
module Group = Collectives.Group
module Gridgen = Scenario.Gridgen
module Segment = Simnet.Segment
module Tcp = Drivers.Tcp

let domain_counts = [ 1; 2; 4; 8 ]

(* ---------- direct Shard runtime: cross-shard ping-pong ---------- *)

(* Two shards, one frame bouncing [hops] times; every execution logs
   (shard, virtual time). The digest must not depend on the domain count,
   and each hop must land exactly [latency] after the previous. *)
let pingpong ~domains ~hops ~latency =
  let sims = [| Sim.create ~seed:1 (); Sim.create ~seed:2 () |] in
  let lookahead = [| [| max_int; latency |]; [| latency; max_int |] |] in
  let t = Shard.create ~lookahead sims in
  let log = Array.init 2 (fun _ -> ref []) in
  let rec hop sh i () =
    let now = Sim.now (Shard.sim t sh) in
    log.(sh) := now :: !(log.(sh));
    if i < hops then
      Shard.post t ~src:sh ~dst:(1 - sh) ~ts:(now + latency)
        (hop (1 - sh) (i + 1))
  in
  Sim.at sims.(0) 0 (hop 0 1);
  Shard.run ~domains t;
  (Array.map (fun l -> List.rev !l) log, Shard.executed t 0 + Shard.executed t 1)

let test_pingpong () =
  let reference = ref None in
  List.iter
    (fun domains ->
       let log, executed = pingpong ~domains ~hops:64 ~latency:7 in
       Tutil.check_int
         (Printf.sprintf "all hops executed (domains=%d)" domains)
         64 executed;
       (* Shard 0 runs hops 2,4,... at 7,21,...; timestamps must be the
          arithmetic sequence the lookahead dictates. *)
       List.iteri
         (fun k ts ->
            Tutil.check_int "hop timestamps follow latency" ((2 * k + 1) * 7)
              ts)
         log.(1);
       match !reference with
       | None -> reference := Some log
       | Some r ->
         Alcotest.(check (array (list int)))
           (Printf.sprintf "byte-identical log (domains=%d)" domains)
           r log)
    domain_counts

(* ---------- QCheck: lookahead-safety model ---------- *)

(* A random event tree over a random shard count: each node executes on
   its shard at a pre-computed timestamp and posts its children
   cross-shard at [ts + lookahead + extra]. Safety means no shard ever
   has to run an event before an in-flight frame with a smaller
   timestamp — operationally: every execution happens exactly at its
   planned timestamp (the runtime's [advance_to] raises if a frame
   arrives in a shard's past, and per-shard time never goes backward). *)
type ev = { e_sh : int; e_ts : int; e_kids : ev list }

let rec gen_ev rng ~nshards ~look ~sh ~ts ~hops =
  let kids =
    if hops = 0 then []
    else
      List.init (Rng.int rng 3) (fun _ ->
          let dst = Rng.int rng nshards in
          let extra = Rng.int rng 25 in
          gen_ev rng ~nshards ~look ~sh:dst ~ts:(ts + look + extra)
            ~hops:(hops - 1))
  in
  { e_sh = sh; e_ts = ts; e_kids = kids }

let run_model ~seed ~nshards ~look ~domains =
  let rng = Rng.create seed in
  let roots =
    List.init (2 + Rng.int rng 4) (fun _ ->
        gen_ev rng ~nshards ~look ~sh:(Rng.int rng nshards)
          ~ts:(Rng.int rng 50) ~hops:3)
  in
  let sims = Array.init nshards (fun i -> Sim.create ~seed:(100 + i) ()) in
  let lookahead = Array.make_matrix nshards nshards look in
  let t = Shard.create ~lookahead sims in
  (* Per-shard logs are appended only by that shard's own executions —
     owner-shard discipline, no locking needed. *)
  let logs = Array.init nshards (fun _ -> ref []) in
  let rec fire ev () =
    let now = Sim.now (Shard.sim t ev.e_sh) in
    logs.(ev.e_sh) := (ev.e_ts, now) :: !(logs.(ev.e_sh));
    List.iter
      (fun k -> Shard.post t ~src:ev.e_sh ~dst:k.e_sh ~ts:k.e_ts (fire k))
      ev.e_kids
  in
  List.iter (fun r -> Sim.at sims.(r.e_sh) r.e_ts (fire r)) roots;
  Shard.run ~domains t;
  Array.map (fun l -> List.rev !l) logs

(* [QCheck.int_range] shrinks toward 0, out of its own range: a failure
   would be reported at a case [Shard.create] rejects (lookahead 0, one
   shard) instead of at the real divergence. *)
let in_range lo hi =
  QCheck.(add_shrink_invariant (fun x -> lo <= x && x <= hi) (int_range lo hi))

let prop_lookahead_safety =
  QCheck.Test.make ~count:60 ~name:"shard model: planned = executed, no rewind"
    QCheck.(triple (in_range 0 10_000) (in_range 2 4) (in_range 1 20))
    (fun (seed, nshards, look) ->
       let one = run_model ~seed ~nshards ~look ~domains:1 in
       let many = run_model ~seed ~nshards ~look ~domains:nshards in
       Array.iter
         (fun log ->
            ignore
              (List.fold_left
                 (fun prev (planned, actual) ->
                    if planned <> actual then
                      QCheck.Test.fail_reportf
                        "event planned for %d ran at %d" planned actual;
                    if actual < prev then
                      QCheck.Test.fail_reportf
                        "shard time went backward: %d after %d" actual prev;
                    actual)
                 min_int log))
         one;
       if one <> many then
         QCheck.Test.fail_reportf
           "logs differ between 1 and %d domains (seed %d)" nshards seed;
       true)

(* ---------- back-to-back bounded runs ---------- *)

let ms = Engine.Time.ms

let two_shards ~look =
  let sims = [| Sim.create ~seed:1 (); Sim.create ~seed:2 () |] in
  let lookahead = [| [| max_int; look |]; [| look; max_int |] |] in
  (sims, Shard.create ~lookahead sims)

(* A shard that ends a bounded run with nothing left below [until]
   publishes its horizon, which can lie past its next local event. The
   next run must not let the peer execute beyond the frame that event
   sends: shard 1's 30 ms event posts to shard 0 at 40 ms, before shard
   0's own 45 ms event. *)
let test_bounds_reseeded () =
  let sims, t = two_shards ~look:(ms 10) in
  let log = ref [] in
  let note tag () = log := (tag, Sim.now sims.(0)) :: !log in
  Sim.at sims.(0) (ms 5) ignore;
  Sim.at sims.(1) (ms 5) ignore;
  Sim.at sims.(0) (ms 45) (note "local");
  Sim.at sims.(1) (ms 30) (fun () ->
      Shard.post t ~src:1 ~dst:0 ~ts:(ms 40) (note "frame"));
  Shard.run ~until:(ms 20) t;
  Shard.run ~until:(ms 100) t;
  Alcotest.(check (list (pair string int)))
    "shard 0 runs the frame, then its own event"
    [ ("frame", ms 40); ("local", ms 45) ]
    (List.rev !log)

(* After a bounded run every shard stands at [until], the idle one too:
   an item injected on shard 1 before the next run posts at its own
   [now + lookahead], which must not lie in shard 0's past. *)
let test_one_clock_between_runs () =
  let sims, t = two_shards ~look:(ms 1) in
  Sim.at sims.(0) (ms 100) ignore;
  Shard.run ~until:(ms 50) t;
  Tutil.check_int "idle shard advanced to until" (ms 50) (Sim.now sims.(1));
  let got = ref 0 in
  Sim.after sims.(1) 0 (fun () ->
      Shard.post t ~src:1 ~dst:0 ~ts:(Sim.now sims.(1) + ms 1) (fun () ->
          got := Sim.now sims.(0)));
  Shard.run t;
  Tutil.check_int "frame ran at now + lookahead" (ms 51) !got;
  Tutil.check_int "one clock after the run" (Sim.now sims.(0))
    (Sim.now sims.(1))

(* [Net.now] inside an event is the executing shard's time, even while
   another shard (100 ms of lookahead away) has run ahead. *)
let test_net_now_in_event () =
  let net = Simnet.Net.create ~shards:2 () in
  let a = Simnet.Net.add_node ~shard:0 net "a" in
  let b = Simnet.Net.add_node ~shard:1 net "b" in
  let wan =
    { Simnet.Presets.vthd with Simnet.Linkmodel.latency_ns = ms 100 }
  in
  ignore (Simnet.Net.add_segment net wan [ a; b ]);
  let seen = ref 0 in
  Sim.at (Simnet.Net.shard_sim net 0) (ms 50) ignore;
  Sim.at (Simnet.Net.shard_sim net 1) (ms 10) (fun () ->
      seen := Simnet.Net.now net);
  Simnet.Net.run net;
  Tutil.check_int "Net.now inside the 10 ms event" (ms 10) !seen;
  Tutil.check_int "Net.now after the run" (ms 50) (Simnet.Net.now net)

(* ---------- sharded grid: collectives determinism matrix ---------- *)

let pattern n seed =
  let b = Bb.create n in
  Bb.fill_pattern b ~seed;
  b

(* A scaled-down E13/E16 scenario: 4 SAN islands (one shard each) on a
   shared WAN, every rank running allreduce + barrier + bcast through the
   multilevel strategy, so SAN, loopback and cross-shard WAN paths all
   carry traffic. [rounds] rounds, each spawned between runs and driven
   by one run bounded at [slice] past the grid clock (the default drains
   the run). Returns a digest of everything observable. *)
let collective_digest ?(rounds = 1) ?(slice = Engine.Time.sec 3600) ~seed
    ~domains () =
  Padico.reset ();
  let g = Gridgen.generate ~seed ~clusters:4 ~nodes_per_cluster:4 () in
  let net = Padico.net g.Gridgen.grid in
  let nodes = Array.of_list g.Gridgen.nodes in
  let groups =
    Group.create g.Gridgen.grid ~name:"shard-det" g.Gridgen.nodes
  in
  let sum = Atomic.make 0 in
  for k = 0 to rounds - 1 do
    let hs =
      Array.mapi
        (fun r node ->
           Padico.spawn g.Gridgen.grid node
             ~name:(Printf.sprintf "det-%d-%d" k r)
             (fun () ->
                let a =
                  Group.allreduce groups.(r) ~op:Group.Bxor
                    (pattern 512 ((k * 64) + r + 1))
                in
                ignore (Atomic.fetch_and_add sum (Bb.checksum a));
                Group.barrier groups.(r);
                let b =
                  Group.bcast groups.(r) ~root:(k mod Array.length nodes)
                    (if r = k mod Array.length nodes then pattern 256 (k + 7)
                     else Bb.create 0)
                in
                ignore (Atomic.fetch_and_add sum (Bb.checksum b))))
        nodes
    in
    Padico.run g.Gridgen.grid ~until:(Padico.now g.Gridgen.grid + slice)
      ~domains;
    Array.iter Tutil.assert_done hs
  done;
  let runtime = Simnet.Net.shard_runtime net in
  (* Every item a shard executed, local event or cross-shard frame, is
     one event its simulator dispatched. *)
  let sum_over f =
    List.fold_left ( + ) 0 (List.init (Shard.shard_count runtime) f)
  in
  Tutil.check_int "frames count as dispatched events"
    (sum_over (Shard.executed runtime))
    (sum_over (fun i -> Sim.events_dispatched (Shard.sim runtime i)));
  let per_shard =
    List.init (Shard.shard_count runtime) (fun i ->
        (Shard.executed runtime i, Shard.posted runtime i,
         Sim.now (Shard.sim runtime i)))
  in
  let segs =
    List.map
      (fun s ->
         ( Segment.name s, Segment.frames_sent s, Segment.frames_delivered s,
           Segment.frames_lost s, Segment.bytes_sent s ))
      (Simnet.Net.segments (Padico.net g.Gridgen.grid))
  in
  ( Padico.now g.Gridgen.grid, Atomic.get sum,
    Group.wan_messages groups.(0), Group.wan_bytes groups.(0),
    per_shard, segs )

let test_collective_determinism () =
  List.iter
    (fun seed ->
       let reference = collective_digest ~seed ~domains:1 () in
       let now1, sum1, _, _, _, _ = reference in
       Tutil.check_bool "time advanced" true (now1 > 0);
       Tutil.check_bool "payload delivered" true (sum1 <> 0);
       List.iter
         (fun domains ->
            let d = collective_digest ~seed ~domains () in
            if d <> reference then
              Alcotest.failf
                "collective digest differs: seed %d, %d domains vs 1" seed
                domains)
         (List.tl domain_counts))
    [ 42; 7; 1234 ]

(* Twenty back-to-back rounds, one bounded run each; most runs end with
   TCP timers still pending. Processes spawned between runs on every
   shard must never post into a peer's past, and the outcome stays a
   function of the partition alone. *)
let test_rounds_determinism () =
  let rounds = 20 and slice = Engine.Time.sec 1 in
  let reference = collective_digest ~rounds ~slice ~seed:42 ~domains:1 () in
  List.iter
    (fun domains ->
       if collective_digest ~rounds ~slice ~seed:42 ~domains () <> reference
       then
         Alcotest.failf "20-round digest differs: %d domains vs 1" domains)
    [ 2; 4 ]

(* ---------- sharded grid: faults land on their target's shard ---------- *)

(* A crash planned for a node on shard 1 fires on shard 1's timeline: the
   victim's own 1 ms ticks stop at the last one before [crash_at], however
   far shard 1 may run ahead of shard 0 (here up to the 10 ms WAN
   lookahead). A link fault on a segment spanning both shards is armed
   once per shard and takes down both ports. *)
let test_crash_on_own_shard () =
  let net = Simnet.Net.create ~shards:2 () in
  let a = Simnet.Net.add_node ~shard:0 net "a" in
  let b = Simnet.Net.add_node ~shard:1 net "b" in
  let wan =
    Simnet.Net.add_segment net
      { Simnet.Presets.vthd with Simnet.Linkmodel.latency_ns = ms 10 }
      ~name:"wan" [ a; b ]
  in
  let crash_at = ms 25 + 500_000 in
  let plan at_ns action = [ { Padico_fault.Plan.at_ns; action } ] in
  ignore
    (Padico_fault.Inject.apply net
       (plan crash_at (Padico_fault.Plan.Node_crash "b")));
  let sim1 = Simnet.Net.shard_sim net 1 in
  let last = ref (-1) in
  let rec tick () =
    if Simnet.Node.is_up b then begin
      last := Sim.now sim1;
      Sim.after sim1 (ms 1) tick
    end
  in
  Sim.at sim1 0 tick;
  Simnet.Net.run net;
  Tutil.check_int "victim's last tick before crash_at" (ms 25) !last;
  let inj =
    Padico_fault.Inject.apply net
      (plan (ms 70) (Padico_fault.Plan.Link_down "wan"))
  in
  Tutil.check_int "link fault armed" 1 (Padico_fault.Inject.pending inj);
  Simnet.Net.run net;
  Tutil.check_int "link fault fired once" 1 (Padico_fault.Inject.fired inj);
  Tutil.check_bool "both ports down" true
    (Segment.is_down wan a && Segment.is_down wan b)

(* Every fault kind on a 10 ms WAN between a and b, which sit on shards
   of their own when [shards] = 2: a partition from 20 to 40 ms, the link
   down from 60 to 80 ms, a 10 ms loss burst of 1.0 at 100 ms and a 5 ms
   latency spike from 120 to 130 ms. Each node sends a frame at k ms +
   0.5 ms for k < 150. Returns the injector, each port's arrival times
   and the segment's faulted and lost totals. *)
let fault_plan =
  let ev at_ns action = { Padico_fault.Plan.at_ns; action } in
  Padico_fault.Plan.
    [ ev (ms 20) (Partition { group_a = [ "a" ]; group_b = [ "b" ] });
      ev (ms 40) Heal;
      ev (ms 60) (Link_down "wan");
      ev (ms 80) (Link_up "wan");
      ev (ms 100) (Loss_burst { link = "wan"; loss = 1.0; duration_ns = ms 10 });
      ev (ms 120)
        (Latency_spike { link = "wan"; add_ns = ms 5; duration_ns = ms 10 }) ]

let wan_faults ~shards ~domains plan =
  let net = Simnet.Net.create ~shards () in
  let a = Simnet.Net.add_node net "a" in
  let b = Simnet.Net.add_node ~shard:(shards - 1) net "b" in
  let model =
    { Simnet.Presets.vthd with
      Simnet.Linkmodel.latency_ns = ms 10; loss = 0.0; jitter_ns = 0 }
  in
  let wan = Simnet.Net.add_segment net model ~name:"wan" [ a; b ] in
  let inj = Padico_fault.Inject.apply net plan in
  let arrivals node =
    let log = ref [] in
    Segment.set_handler wan node ~proto:99 (fun _ ->
        log := Sim.now (Simnet.Node.sim node) :: !log);
    log
  in
  let at_a = arrivals a and at_b = arrivals b in
  let sender src dst =
    let sim = Simnet.Node.sim src in
    let rec tick k =
      if k < 150 then begin
        Segment.send wan
          (Simnet.Packet.make ~src:(Simnet.Node.id src)
             ~dst:(Simnet.Node.id dst) ~proto:99 ~size:100
             (Simnet.Packet.Raw (Bb.create 100)));
        Sim.after sim (ms 1) (fun () -> tick (k + 1))
      end
    in
    Sim.at sim 500_000 (fun () -> tick 0)
  in
  sender a b;
  sender b a;
  Simnet.Net.run ~domains net;
  ( inj,
    ( List.rev !at_a, List.rev !at_b, Segment.frames_faulted wan,
      Segment.frames_lost wan ) )

(* Per port, a fault on a segment spanning shards drops, loses and delays
   exactly the frames it does on one shard, at 1 and 2 domains. *)
let test_faults_across_shards () =
  let _, reference = wan_faults ~shards:1 ~domains:1 fault_plan in
  let at_a, at_b, faulted, lost = reference in
  Tutil.check_int "a receives" 100 (List.length at_a);
  Tutil.check_int "b receives" 100 (List.length at_b);
  Tutil.check_int "faulted (partition + link down)" 80 faulted;
  Tutil.check_int "lost (burst)" 20 lost;
  Tutil.check_bool "spike delays arrivals" true
    (List.exists (fun t -> t > ms 135 && t < ms 136) at_a);
  List.iter
    (fun domains ->
       let _, d = wan_faults ~shards:2 ~domains fault_plan in
       if d <> reference then
         Alcotest.failf "faults on 2 shards (%d domains) differ from 1 shard"
           domains)
    [ 1; 2 ]

(* [fired] counts plan events, not the parts a shard layout splits them
   into: a heal on a grid of two shards is one event. *)
let test_fired_counts_events () =
  let inj, _ =
    wan_faults ~shards:2 ~domains:1
      [ { Padico_fault.Plan.at_ns = ms 10; action = Padico_fault.Plan.Heal } ]
  in
  Tutil.check_int "heal fires once" 1 (Padico_fault.Inject.fired inj);
  List.iter
    (fun domains ->
       let inj, _ = wan_faults ~shards:2 ~domains fault_plan in
       let what s = Printf.sprintf "%s (%d domains)" s domains in
       Tutil.check_int (what "6 events + 2 restores") 8
         (Padico_fault.Inject.fired inj);
       Tutil.check_int (what "none pending") 0
         (Padico_fault.Inject.pending inj))
    [ 1; 2 ]

(* ---------- sharded grid: edge-gateway determinism ---------- *)

(* The E15 topology under per-node shards: TCP handshakes, request bytes
   and acks all cross shards. Same digest law. *)
let edge_digest ~domains =
  Padico.reset ();
  let e =
    Gridgen.edge ~seed:11 ~sharded:true ~shards:3 ~client_nodes:5
      ~clients:40 ~churn:0.25 ~tail:1.3 ()
  in
  let st = Gridgen.run_edge ~until:(Engine.Time.sec 60) ~domains e in
  ( st.Gridgen.es_established, st.Gridgen.es_requests,
    st.Gridgen.es_reconnects, st.Gridgen.es_aborted, st.Gridgen.es_resets,
    st.Gridgen.es_served,
    Segment.frames_sent e.Gridgen.e_wan,
    Segment.frames_delivered e.Gridgen.e_wan,
    Segment.bytes_sent e.Gridgen.e_wan,
    Padico.now e.Gridgen.e_grid )

let test_edge_determinism () =
  let reference = edge_digest ~domains:1 in
  let est, req, _, _, _, served, _, _, _, _ = reference in
  Tutil.check_bool "connections established" true (est > 0);
  Tutil.check_bool "requests acked" true (req > 0);
  Tutil.check_int "every request served" req served;
  List.iter
    (fun domains ->
       let d = edge_digest ~domains in
       if d <> reference then
         Alcotest.failf "edge digest differs: %d domains vs 1" domains)
    (List.tl domain_counts)

(* ---------- TCP RTT on a segment that spans shards ---------- *)

(* 200 kB over a jitter-free LAN from [a] (shard 0) to [b]. The segment
   lists [b] first: TCP must time its RTT samples on its own node's
   clock, never on the clock of whichever shard a segment's first node
   lives on. With no randomness on the wire, the smoothed RTT is the
   same on one shard and on two, whatever the domain count. *)
let tcp_srtt ~shards ~domains =
  Padico.reset ();
  let net = Simnet.Net.create ~seed:3 ~shards () in
  let a = Simnet.Net.add_node ~shard:0 net "a" in
  let b = Simnet.Net.add_node ~shard:(shards - 1) net "b" in
  let lan =
    { Simnet.Presets.ethernet100 with Simnet.Linkmodel.jitter_ns = 0 }
  in
  let seg = Simnet.Net.add_segment net lan [ b; a ] in
  let sa = Tcp.attach seg a and sb = Tcp.attach seg b in
  let total = 200_000 in
  let received = ref 0 in
  Tcp.listen sb ~port:80 (fun conn ->
      Tcp.set_event_cb conn (fun ev ->
          if ev = Tcp.Readable then
            let rec drain () =
              match Tcp.read conn ~max:65_536 with
              | Some buf ->
                received := !received + Bb.length buf;
                drain ()
              | None -> ()
            in
            drain ()));
  let c = Tcp.connect sa ~dst:(Simnet.Node.id b) ~port:80 in
  let msg = Bb.create total in
  Bb.fill_zero msg;
  let sent = ref 0 in
  Tcp.set_event_cb c (fun ev ->
      match ev with
      | Tcp.Established | Tcp.Writable ->
        if !sent < total then
          sent := !sent + Tcp.write c (Bb.sub msg !sent (total - !sent))
      | _ -> ());
  Simnet.Net.run ~domains net;
  Tutil.check_int
    (Printf.sprintf "all bytes received (shards=%d, domains=%d)" shards
       domains)
    total !received;
  (Tcp.srtt_ns c, Simnet.Net.now net)

let test_tcp_rtt () =
  let one_shard, _ = tcp_srtt ~shards:1 ~domains:1 in
  Tutil.check_bool "rtt sampled" true (one_shard > 0);
  List.iter
    (fun domains ->
       Tutil.check_int
         (Printf.sprintf "srtt on 2 shards, %d domains = on 1 shard" domains)
         one_shard
         (fst (tcp_srtt ~shards:2 ~domains)))
    [ 1; 2; 4 ]

(* ---------- guard rails ---------- *)

let test_validation () =
  (* Cross-shard segments must have positive latency. *)
  let net = Simnet.Net.create ~shards:2 () in
  let a = Simnet.Net.add_node ~shard:0 net "a" in
  let b = Simnet.Net.add_node ~shard:1 net "b" in
  let zero_lat =
    { Simnet.Presets.myrinet2000 with Simnet.Linkmodel.latency_ns = 0 }
  in
  ignore (Simnet.Net.add_segment net zero_lat [ a; b ]);
  (match Simnet.Net.run net with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "zero-latency cross-shard segment accepted");
  (* The first run freezes a grid of several shards. *)
  let net = Simnet.Net.create ~shards:2 () in
  let a = Simnet.Net.add_node ~shard:0 net "a" in
  let b = Simnet.Net.add_node ~shard:1 net "b" in
  ignore (Simnet.Net.add_segment net Simnet.Presets.vthd [ a; b ]);
  Simnet.Net.run net;
  (match Simnet.Net.add_node ~shard:1 net "c" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "frozen sharded grid accepted a node");
  (* A one-shard grid rejects placement on a second shard, and has no
     lookahead to invalidate: it still grows after a run. *)
  let net = Simnet.Net.create () in
  (match Simnet.Net.add_node ~shard:1 net "x" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "one-shard grid accepted ~shard:1");
  let p = Simnet.Net.add_node net "p" in
  Simnet.Net.run net;
  let q = Simnet.Net.add_node net "q" in
  ignore (Simnet.Net.add_segment net Simnet.Presets.myrinet2000 [ p; q ]);
  (* ~domains is clamped to the shard count: a one-shard grid gives the
     same outcome on 4 domains as on 1. *)
  Alcotest.(check (pair int int))
    "one-shard grid: same digest on 4 domains as on 1"
    (tcp_srtt ~shards:1 ~domains:1)
    (tcp_srtt ~shards:1 ~domains:4);
  (* Host backend cannot shard. *)
  match Padico.create ~backend:Padico.Host ~shards:2 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Host backend accepted ~shards"

let () =
  Alcotest.run "shard"
    [ ("runtime",
       [ Alcotest.test_case "cross-shard ping-pong" `Quick test_pingpong;
         Alcotest.test_case "validation" `Quick test_validation;
         Alcotest.test_case "bounds reseeded between bounded runs" `Quick
           test_bounds_reseeded;
         Alcotest.test_case "one clock between bounded runs" `Quick
           test_one_clock_between_runs;
         Alcotest.test_case "Net.now inside a sharded event" `Quick
           test_net_now_in_event ]);
      Tutil.qsuite "model" [ prop_lookahead_safety ];
      ("grid",
       [ Alcotest.test_case "collectives determinism matrix" `Quick
           test_collective_determinism;
         Alcotest.test_case "20 bounded rounds determinism" `Quick
           test_rounds_determinism;
         Alcotest.test_case "node crash lands on its own shard" `Quick
           test_crash_on_own_shard;
         Alcotest.test_case "faults on a segment spanning shards" `Quick
           test_faults_across_shards;
         Alcotest.test_case "fired counts plan events" `Quick
           test_fired_counts_events;
         Alcotest.test_case "edge determinism matrix" `Quick
           test_edge_determinism;
         Alcotest.test_case "tcp rtt on a segment spanning shards" `Quick
           test_tcp_rtt ]) ]

(* E15: edge gateway at 100k connections.

   A sharded frontend (4 gateway nodes) accepts a WAN client population
   with churn, mid-handshake aborts and heavy-tailed (Pareto) request
   sizes. The sweep grows the population 1k -> 10k -> 100k with a fixed
   20 % active fraction (an edge gateway's steady state: most connections
   idle) and checks that the capacity machinery keeps the cost model flat:

   - per-connection CPU cost stays near-flat as the population
     grows 100x (budget 2.5x for 100k vs 1k) — no O(watched) scan
     anywhere on the dispatch path (readiness queues), no dead timer
     events (an ACK's cancel takes its RTO out of the event queue), no
     eager buffers (a send ring exists only while it holds
     unacknowledged data). The budget is
     above 1 because the comparison deliberately crosses cache tiers:
     a 1k gateway's whole live heap is ~4 MB while 100k holds ~230 MB
     in DRAM, so memory latency grows even though the work per
     connection does not —
     allocation per connection and resident bytes per connection are
     exactly scale-flat, which is the algorithmic claim. An O(watched)
     scan would show up as a 10-100x ratio here, not 2x;
   - idle connections do zero ready-queue work: after the run quiesces,
     every registered source is off the ready list;
   - resident bytes per connection stay under the fixed budget
     (conn overhead + send ring while data is unacknowledged +
     transient receive bytes), and the measured live heap per
     connection end is recorded beside that accounting.

   Sim numbers are virtual-time and deterministic, recorded under e15
   keys. Under --backend host the same scenario runs over real Unix
   sockets with the population capped to 400 clients: both connection
   endpoints plus listeners live in one process, so ~2.2 fds/connection
   must stay under the select() FD_SETSIZE ceiling of 1024 that
   Hostio.Loop enforces; wall-clock metrics land under e15_host keys. *)

module Time = Engine.Time
module Sysio = Netaccess.Sysio
module Na_core = Netaccess.Na_core
module Tcp = Drivers.Tcp
module Gridgen = Scenario.Gridgen

(* EDGE_CHURN / EDGE_ACTIVE override the workload mix for exploration
   (e.g. EDGE_CHURN=0 EDGE_ACTIVE=0 isolates the pure handshake+idle
   population); defaults are the documented E15 configuration. *)
let churn = try float_of_string (Sys.getenv "EDGE_CHURN") with Not_found -> 0.05
let tail = 1.3
let active_frac = try float_of_string (Sys.getenv "EDGE_ACTIVE") with Not_found -> 0.2

let sum_over_nodes f nodes =
  List.fold_left (fun acc n -> acc + f (Sysio.get n)) 0 nodes

(* Process CPU time (user + system), in seconds: unlike wall time it does
   not count the intervals this process spends descheduled on a shared
   machine, which dominated the spread of the short 1k sweep. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let run_sweep ~clients =
  (* The per-connection cost is CPU time: start every sweep from the
     same compacted heap so the ratios compare dispatch work, not the
     GC debris of whichever experiment ran before, and give the sweep a
     server-sized GC budget (large minor heap, lazy major slices, no
     compaction) — a 100k-connection gateway holds ~230 MB live, and
     default desktop GC pacing would charge every sweep for walking it,
     drowning the O(active) dispatch signal being measured. Dropping
     the module registries first actually frees the previous sweeps'
     grids (they stay reachable through the uid-keyed tables); emptying
     the send-ring pool makes the live-heap figure count exactly the
     rings this sweep parks there. *)
  Padico.reset ();
  Engine.Bytebuf.Pool.reset ();
  Gc.compact ();
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 32 * 1024 * 1024;
           space_overhead = 1000; max_overhead = 1_000_000 };
  (* Pre-fault the fresh minor heap: the compaction above returned the
     previous scenario's pages to the OS, and first-touch faults on the
     replacement arena must not land inside the measured window. *)
  for _ = 1 to 16 * 1024 * 1024 do
    ignore (Sys.opaque_identity (ref 0))
  done;
  let live0 = (Gc.stat ()).Gc.live_words in
  let e = Gridgen.edge ~clients ~churn ~tail () in
  let active = max 1 (int_of_float (float_of_int clients *. active_frac)) in
  let t0 = cpu_s () in
  let stats = Gridgen.run_edge ~active e in
  let cpu_ns = (cpu_s () -. t0) *. 1e9 in
  let all = e.Gridgen.e_shards @ e.Gridgen.e_clients in
  (* Measured memory next to the accounting: the major heap the run grew
     (its size counters are refreshed by a full major cycle, which frees
     nothing back to the OS), then the whole gateway's live heap after a
     compaction, per connection end still open. The difference is GC
     slack under this sweep's lazy pacing, not connection state. *)
  let word = Sys.word_size / 8 in
  Gc.full_major ();
  let heap_bytes = (Gc.quick_stat ()).Gc.heap_words * word in
  Gc.compact ();
  let live_words = (Gc.stat ()).Gc.live_words in
  let live_bytes = (live_words - live0) * word in
  let ends = sum_over_nodes Sysio.conn_count all in
  let conns = sum_over_nodes Sysio.conn_count e.Gridgen.e_shards in
  let resident = sum_over_nodes Sysio.bytes_resident e.Gridgen.e_shards in
  let reaped = sum_over_nodes Sysio.conns_reaped all in
  let ready_depth =
    sum_over_nodes (fun s -> Na_core.ready_depth (Na_core.get (Sysio.node s))) all
  in
  let sources =
    sum_over_nodes (fun s -> Na_core.source_count (Na_core.get (Sysio.node s))) all
  in
  Gc.set gc;
  let live_per_end =
    if ends = 0 then 0.0 else float_of_int live_bytes /. float_of_int ends
  in
  (stats, cpu_ns /. float_of_int clients, conns, resident, live_per_end,
   reaped, ready_depth, sources, heap_bytes, live_words * word)

let run_sim () =
  (* The 1k sweep is only a few ms of work, so it carries most of the
     ratio's noise; it gets the most repeats. *)
  let sweep = [ ("1k", 1_000, 9); ("10k", 10_000, 3); ("100k", 100_000, 2) ] in
  let per_conn = Hashtbl.create 4 in
  List.iter
    (fun (label, clients, repeats) ->
       (* Host-time noise (page faults, frequency, interrupts) is
          strictly additive, so the minimum over the repeats is the
          cost estimator; the virtual-time outcomes are deterministic
          and identical across repeats. *)
       let best = ref None in
       for _ = 1 to repeats do
         let r = run_sweep ~clients in
         let (_, ns, _, _, _, _, _, _, _, _) = r in
         match !best with
         | Some (_, best_ns, _, _, _, _, _, _, _, _) when best_ns <= ns -> ()
         | _ -> best := Some r
       done;
       let stats, per_conn_ns, conns, resident, live_per_end, reaped,
           ready_depth, sources, heap_bytes, live_total =
         Option.get !best
       in
       Hashtbl.replace per_conn label per_conn_ns;
       let bytes_per_conn =
         if conns = 0 then 0.0 else float_of_int resident /. float_of_int conns
       in
       Printf.printf
         "  %-5s %7d est  %6d req  %5d srv  %5d rejoin  %4d abort  %7.0f \
          ns/conn  %6.0f B/conn  %6.0f live B/end  %6d reaped  ready %d/%d\n%!"
         label stats.Gridgen.es_established stats.Gridgen.es_requests
         stats.Gridgen.es_served stats.Gridgen.es_reconnects
         stats.Gridgen.es_aborted per_conn_ns bytes_per_conn live_per_end
         reaped ready_depth sources;
       let mb b = float_of_int b /. 1048576.0 in
       Printf.printf "        major heap %.1f MB before compaction, %.1f MB live after\n%!"
         (mb heap_bytes) (mb live_total);
       if label = "100k" then begin
         Bhelp.record ~experiment:"e15" "live_bytes_per_conn" live_per_end;
         Bhelp.record ~experiment:"e15" "heap_mb_100k" (mb heap_bytes);
         Bhelp.record ~experiment:"e15" "live_mb_100k" (mb live_total)
       end;
       let rec_ k v = Bhelp.record ~experiment:"e15" (Printf.sprintf "sweep_%s.%s" label k) v in
       rec_ "established" (float_of_int stats.Gridgen.es_established);
       rec_ "requests" (float_of_int stats.Gridgen.es_requests);
       rec_ "served" (float_of_int stats.Gridgen.es_served);
       rec_ "reconnects" (float_of_int stats.Gridgen.es_reconnects);
       rec_ "aborted_handshakes" (float_of_int stats.Gridgen.es_aborted);
       rec_ "per_conn_ns" per_conn_ns;
       rec_ "bytes_per_conn" bytes_per_conn;
       rec_ "reaped" (float_of_int reaped);
       (* Idle connections cost zero per dispatch round: they are
          registered sources *off* the ready list once the run drains. *)
       rec_ "idle_ready_depth" (float_of_int ready_depth);
       rec_ "idle_sources" (float_of_int sources))
    sweep;
  let ratio1 =
    Hashtbl.find per_conn "100k" /. Hashtbl.find per_conn "1k"
  in
  let ratio10 =
    Hashtbl.find per_conn "100k" /. Hashtbl.find per_conn "10k"
  in
  Printf.printf
    "  per-conn cost ratio 100k vs 1k: %.2f  vs 10k: %.2f (budget 2.5 \
     incl. the L2->DRAM working-set shift; resident bytes and \
     allocation per conn are scale-flat)\n%!"
    ratio1 ratio10;
  Bhelp.record ~experiment:"e15" "cost_ratio_100k_vs_1k" ratio1;
  Bhelp.record ~experiment:"e15" "cost_ratio_100k_vs_10k" ratio10

(* Host subset: 400 clients, no churn (real sockets + TIME_WAIT make
   churned ports noisy), bounded by wall-clock deadline since idle real
   connections keep the reactor alive. *)
let run_host () =
  let clients = 400 in
  let e = Gridgen.edge ~backend:Padico.Host ~client_nodes:4 ~clients
      ~churn:0.0 ~tail () in
  let t0 = Unix.gettimeofday () in
  let stats = Gridgen.run_edge ~ramp_ns:50_000 ~until:(Time.sec 5) e in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Printf.printf
    "  host  %5d est  %5d req  %5d srv  (%d clients, %.0f ms wall, fd \
     ceiling %d)\n%!"
    stats.Gridgen.es_established stats.Gridgen.es_requests
    stats.Gridgen.es_served clients wall_ms Hostio.Loop.fd_limit;
  let rec_ k v = Bhelp.record ~experiment:"e15_host" k v in
  rec_ "clients" (float_of_int clients);
  rec_ "established" (float_of_int stats.Gridgen.es_established);
  rec_ "requests" (float_of_int stats.Gridgen.es_requests);
  rec_ "served" (float_of_int stats.Gridgen.es_served);
  rec_ "wall_ms" wall_ms

(* --domains N: the same gateway, every node its own shard, executed by
   the conservative parallel engine. One bounded population (the CI
   multicore smoke), virtual-time outcomes identical to a 1-domain run
   of the same sharded grid by construction (asserted cheaply here, and
   exhaustively in test/test_shard.ml). *)
let run_sharded ~domains =
  Padico.reset ();
  let clients = 2_000 in
  let run d =
    Padico.reset ();
    let e = Gridgen.edge ~sharded:true ~clients ~churn ~tail () in
    let t0 = Unix.gettimeofday () in
    let stats = Gridgen.run_edge ~domains:d e in
    ((Unix.gettimeofday () -. t0) *. 1e3, stats)
  in
  let wall1, ref_stats = run 1 in
  let wall_d, stats = run domains in
  if stats <> ref_stats then begin
    Printf.eprintf "e15 sharded: outcomes differ between 1 and %d domains\n"
      domains;
    exit 1
  end;
  Printf.printf
    "  sharded %5d est  %5d req  %5d srv  (%d clients, %d domains: %.0f      ms vs %.0f ms on 1)\n%!"
    stats.Gridgen.es_established stats.Gridgen.es_requests
    stats.Gridgen.es_served clients domains wall_d wall1;
  let rec_ k v = Bhelp.record ~experiment:"e15" ("sharded." ^ k) v in
  rec_ "clients" (float_of_int clients);
  rec_ "domains" (float_of_int domains);
  rec_ "established" (float_of_int stats.Gridgen.es_established);
  rec_ "served" (float_of_int stats.Gridgen.es_served);
  rec_ "wall_ms_1" wall1;
  rec_ "wall_ms_n" wall_d

let run () =
  print_endline "E15: edge gateway at 100k connections";
  match (!Bhelp.backend, !Bhelp.domains) with
  | Padico.Sim, 1 -> run_sim ()
  | Padico.Sim, d -> run_sharded ~domains:d
  | Padico.Host, _ -> run_host ()

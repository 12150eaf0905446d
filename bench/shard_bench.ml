(* E16: multicore engine — conservative parallel simulation over topology
   shards.

   The E13 grid shape (8 SAN islands on one shared WAN backbone, 1000
   ranks) sharded along its islands: one shard per island, WAN latency as
   lookahead. Every rank runs 20 rounds of multilevel allreduce + bcast,
   each round spawned between runs and driven by one bounded run, so the
   workload is the real full stack (MadIO over the SAN inside each shard,
   TCP over the WAN between shards) across back-to-back runs, not a
   synthetic event storm.

   Two claims are measured:

   - determinism: the complete outcome digest (virtual end time, payload
     checksums, WAN traffic) is byte-identical for every domain count —
     outcomes are a function of the shard partition, never the worker
     count. Checked on every run below and exhaustively in
     test/test_shard.ml.
   - speedup: wall-clock (min of repeats) for 2/4/8 worker domains
     against the same sharded grid on 1 domain, recorded under e16 keys.
     The numbers are honest for the machine they ran on: on a host with
     fewer cores than domains the parallel runs only add synchronization
     overhead, so the >= 3x acceptance bar for 8 domains is asserted only
     when the host actually offers 8 cores
     (Domain.recommended_domain_count); below that the measured ratios
     are still recorded, with the core count, so the trajectory is
     interpretable. *)

module Bb = Engine.Bytebuf
module Group = Collectives.Group
module Gridgen = Scenario.Gridgen

let clusters = 8
let per_cluster = 125 (* 8 x 125 = 1000 ranks, one shard per island *)
let payload = 512
let rounds = 20

(* Long enough for a round (a lost WAN frame costs a 200 ms RTO); short
   enough that a run ends with the round's TCP timers still pending
   rather than draining them, which idle shards can only cross one
   lookahead at a time. *)
let slice_ns = Engine.Time.sec 1
let repeats = 2
let domain_counts = [ 1; 2; 4; 8 ]

let pattern n seed =
  let b = Bb.create n in
  Bb.fill_pattern b ~seed;
  b

(* One full run under [domains] workers: fresh grid, then [rounds]
   rounds of allreduce + bcast on every rank, each spawned between runs
   and run to completion in one bounded slice. Returns (engine cost,
   digest). *)
let run_once ~domains =
  Padico.reset ();
  let g =
    Gridgen.generate ~seed:4242 ~clusters
      ~nodes_per_cluster:per_cluster ()
  in
  let grid = g.Gridgen.grid in
  let nodes = Array.of_list g.Gridgen.nodes in
  let groups = Group.create grid ~name:"e16" g.Gridgen.nodes in
  let sum = Atomic.make 0 in
  let cost = ref Bhelp.no_engine_cost in
  for k = 0 to rounds - 1 do
    let hs =
      Array.mapi
        (fun r node ->
           Padico.spawn grid node
             ~name:(Printf.sprintf "e16-%d-%d" k r)
             (fun () ->
                let a =
                  Group.allreduce groups.(r) ~op:Group.Bxor
                    (pattern payload ((k * 1024) + r + 1))
                in
                ignore (Atomic.fetch_and_add sum (Bb.checksum a));
                let root = k * per_cluster mod Array.length nodes in
                let b =
                  Group.bcast groups.(r) ~root
                    (if r = root then pattern payload (42 + k)
                     else Bb.create 0)
                in
                ignore (Atomic.fetch_and_add sum (Bb.checksum b))))
        nodes
    in
    cost :=
      Bhelp.add_engine_cost !cost
        (Bhelp.engine_cost grid (fun () ->
             Padico.run grid ~until:(Padico.now grid + slice_ns) ~domains));
    Array.iter
      (fun h ->
         Scenario.fail_on_error h;
         if Engine.Proc.result h = None then begin
           Printf.eprintf "e16: %s did not finish within its slice\n"
             (Engine.Proc.name h);
           exit 1
         end)
      hs
  done;
  let digest =
    ( Padico.now grid, Atomic.get sum,
      Group.wan_messages groups.(0), Group.wan_bytes groups.(0) )
  in
  (!cost, digest)

let run () =
  let cores = Domain.recommended_domain_count () in
  Scenario.print_header
    (Printf.sprintf
       "E16: multicore engine (%d islands x %d nodes = %d ranks, %d shards, \
        %d bounded rounds, %d cores available)"
       clusters per_cluster (clusters * per_cluster) clusters rounds cores);
  let rec_ k v = Bhelp.record ~experiment:"e16" k v in
  rec_ "nodes" (float_of_int (clusters * per_cluster));
  rec_ "shards" (float_of_int clusters);
  rec_ "cores" (float_of_int cores);
  let reference = ref None in
  let best_of d =
    let best = ref None in
    for _ = 1 to repeats do
      let cost, digest = run_once ~domains:d in
      (match !best with
       | Some b when b.Bhelp.wall_s <= cost.Bhelp.wall_s -> ()
       | _ -> best := Some cost);
      match !reference with
      | None -> reference := Some digest
      | Some r ->
        if digest <> r then begin
          Printf.eprintf
            "e16: outcome digest differs on %d domains — determinism \
             violated\n"
            d;
          exit 1
        end
    done;
    Option.get !best
  in
  let cost1 = best_of 1 in
  let wall1 = cost1.Bhelp.wall_s in
  Printf.printf "  %d domains  %7.0f ms  (baseline)\n%!" 1 (wall1 *. 1e3);
  rec_ "wall_ms.d1" (wall1 *. 1e3);
  print_string "  ";
  Bhelp.report_engine_cost ~experiment:"e16" cost1;
  List.iter
    (fun d ->
       let wall = (best_of d).Bhelp.wall_s in
       let speedup = wall1 /. wall in
       Printf.printf "  %d domains  %7.0f ms  speedup %.2fx%s\n%!" d
         (wall *. 1e3) speedup
         (if cores < d then
            Printf.sprintf "  (only %d core%s — overhead expected)" cores
              (if cores = 1 then "" else "s")
          else "");
       rec_ (Printf.sprintf "wall_ms.d%d" d) (wall *. 1e3);
       rec_ (Printf.sprintf "speedup.d%d" d) speedup;
       (* The acceptance bar only means something when the hardware can
          actually run the domains in parallel. *)
       if d = 8 && cores >= 8 && speedup < 3.0 then begin
         Printf.eprintf
           "e16: speedup on 8 domains is %.2fx, below the 3x bar despite \
            %d cores\n"
           speedup cores;
         exit 1
       end)
    (List.filter (fun d -> d > 1) domain_counts);
  print_endline "  outcome digests byte-identical across all domain counts"

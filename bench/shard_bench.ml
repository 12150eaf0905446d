(* E16: multicore engine — conservative parallel simulation over topology
   shards.

   The E13 grid shape (8 SAN islands on one shared WAN backbone, 1000
   ranks) sharded along its islands: one shard per island, WAN latency as
   lookahead. Every rank runs a multilevel allreduce + bcast, so the
   workload is the real full stack (MadIO over the SAN inside each shard,
   TCP over the WAN between shards), not a synthetic event storm.

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
let repeats = 2
let domain_counts = [ 1; 2; 4; 8 ]

let pattern n seed =
  let b = Bb.create n in
  Bb.fill_pattern b ~seed;
  b

(* One full run under [domains] workers: fresh grid, every rank allreduce
   + bcast, drained to quiescence. Returns (engine cost, digest). *)
let run_once ~domains =
  Padico.reset ();
  let g =
    Gridgen.generate ~seed:4242 ~sharded:true ~clusters
      ~nodes_per_cluster:per_cluster ()
  in
  let nodes = Array.of_list g.Gridgen.nodes in
  let groups = Group.create g.Gridgen.grid ~name:"e16" g.Gridgen.nodes in
  let sum = Atomic.make 0 in
  let hs =
    Array.mapi
      (fun r node ->
         Padico.spawn g.Gridgen.grid node
           ~name:(Printf.sprintf "e16-%d" r)
           (fun () ->
              let a =
                Group.allreduce groups.(r) ~op:Group.Bxor
                  (pattern payload (r + 1))
              in
              ignore (Atomic.fetch_and_add sum (Bb.checksum a));
              let b =
                Group.bcast groups.(r) ~root:0
                  (if r = 0 then pattern payload 42 else Bb.create 0)
              in
              ignore (Atomic.fetch_and_add sum (Bb.checksum b))))
      nodes
  in
  let cost =
    Bhelp.engine_cost g.Gridgen.grid (fun () ->
        Padico.run g.Gridgen.grid ~until:(Engine.Time.sec 3600) ~domains)
  in
  Array.iter Scenario.fail_on_error hs;
  let digest =
    ( Padico.now g.Gridgen.grid, Atomic.get sum,
      Group.wan_messages groups.(0), Group.wan_bytes groups.(0) )
  in
  (cost, digest)

let run () =
  let cores = Domain.recommended_domain_count () in
  Scenario.print_header
    (Printf.sprintf
       "E16: multicore engine (%d islands x %d nodes = %d ranks, %d shards, \
        %d cores available)"
       clusters per_cluster (clusters * per_cluster) clusters cores);
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

(* Benchmark harness: one experiment per table/figure of the paper (see
   DESIGN.md section 4). Run all with no argument, or one by name.
   --backend host reruns the host-capable experiments over real Unix
   sockets; their wall-clock metrics land under *_host keys. *)

let experiments =
  [ ("fig3", "Figure 3: bandwidth vs message size over Myrinet", Fig3.run);
    ("table1", "Table 1: latency and max bandwidth", Table1.run);
    ("madio", "E3: MadIO overhead over plain Madeleine", Madio_bench.run);
    ("wan", "E4: VTHD WAN + parallel streams", Wan_bench.run);
    ("vrp", "E5: lossy link, TCP vs VRP", Vrp_bench.run);
    ("arbitration", "E6: middleware sharing a node", Arb_bench.run);
    ("adoc", "E7: adaptive online compression", Adoc_bench.run);
    ("copies", "E8: marshalling-copies ablation", Copies_bench.run);
    ("obs", "E9: tracing overhead on the MadIO hot path", Obs_bench.run);
    ("fault", "E10: fault injection and failover resilience", Fault_bench.run);
    ("flow", "E11: flow control and overload protection", Flow_bench.run);
    ("sched", "E12: arbitration and small-message coalescing",
     Sched_bench.run);
    ("collect", "E13: topology-aware collectives at grid scale",
     Coll_bench.run);
    ("detect", "E14: self-healing collectives under member crash",
     Detect_bench.run);
    ("edge", "E15: edge gateway at 100k connections", Edge_bench.run);
    ("shard", "E16: multicore engine, conservative parallel simulation",
     Shard_bench.run);
    ("micro", "wall-clock microbenchmarks", Micro_bench.run) ]

(* Experiments meaningful on real sockets (the rest model SAN hardware,
   loss or virtual-time schedules the OS does not expose). *)
let host_capable = [ "flow"; "detect"; "edge"; "micro" ]

let usage () =
  print_endline
    "usage: bench/main.exe [--backend sim|host] [--domains N] [experiment]";
  print_endline "experiments:";
  List.iter
    (fun (name, descr, _) -> Printf.printf "  %-12s %s\n" name descr)
    experiments;
  print_endline "  all          run everything (default)"

let () =
  Printexc.record_backtrace true;
  let args = Array.to_list Sys.argv |> List.tl in
  let rec strip_backend = function
    | "--backend" :: "host" :: rest ->
      Bhelp.backend := Padico.Host;
      strip_backend rest
    | "--backend" :: "sim" :: rest ->
      Bhelp.backend := Padico.Sim;
      strip_backend rest
    | "--backend" :: other :: _ ->
      Printf.eprintf "unknown backend %S (sim|host)\n" other;
      exit 2
    | "--domains" :: n :: rest ->
      (match int_of_string_opt n with
       | Some d when d >= 1 ->
         Bhelp.domains := d;
         strip_backend rest
       | _ ->
         Printf.eprintf "--domains wants a positive integer, got %S\n" n;
         exit 2)
    | x :: rest -> x :: strip_backend rest
    | [] -> []
  in
  let args = strip_backend args in
  let experiments =
    if !Bhelp.backend = Padico.Host then
      List.filter (fun (n, _, _) -> List.mem n host_capable) experiments
    else experiments
  in
  (* Each experiment builds fresh grids; dropping the uid-keyed module
     registries between experiments keeps earlier grids (e.g. E13/E14's
     1024-rank trees) from skewing later wall-clock measurements. *)
  let run_isolated run = run (); Padico.reset () in
  match args with
  | [] | [ "all" ] ->
    List.iter (fun (_, _, run) -> run_isolated run) experiments;
    Bhelp.write_results ()
  | names ->
    (* Several experiment names run in one invocation so the accumulated
       BENCH_results.json keeps every metric (e.g. `fault flow` in CI). *)
    let runs =
      List.map
        (fun name ->
           match List.find_opt (fun (n, _, _) -> n = name) experiments with
           | Some (_, _, run) -> Some run
           | None -> None)
        names
    in
    if List.exists Option.is_none runs then usage ()
    else begin
      List.iter (function Some run -> run_isolated run | None -> ()) runs;
      Bhelp.write_results ()
    end

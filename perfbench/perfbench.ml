(* Repository benchmark executable: one workload per process.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 sets the workload up several times (setup_s is the median),
   runs the timed phase untraced and prints the end-to-end metrics.
   --trace 1 runs an untraced phase, then a traced one on a fresh set-up,
   and prints the per-layer metrics; the ratio of the two throughputs is
   the tracing overhead. The last line of standard output is the result
   object; the lines before it are the human report. *)

module J = Padico_obs.Json
open Perfbench_core
open Measure

let env ~workload ~seed ~trace metrics =
  let commit = try Sys.getenv "PERFBENCH_COMMIT" with Not_found -> "unknown" in
  J.Obj
    [ ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("ocaml", J.Str Sys.ocaml_version);
      ("commit", J.Str commit);
      ("backend", J.Str (if workload = "host_echo" then "host" else "sim"));
      ("engine", J.Str "classic, 1 domain");
      ("workload", J.Str workload);
      ("seed", J.Int seed);
      ("trace", J.Int trace);
      ("samples",
       J.Obj
         (List.filter_map
            (fun x -> if x.Pb.m_samples > 0 then Some (x.Pb.m_name, J.Int x.Pb.m_samples) else None)
            metrics)) ]

let print_report ~title metrics =
  Printf.printf "\n%s\n" title;
  List.iter
    (fun x ->
       Printf.printf "  %-38s %16.6g %-17s%s\n" x.Pb.m_name x.Pb.m_value x.Pb.m_unit
         (if x.Pb.m_samples > 0 then Printf.sprintf "n=%d" x.Pb.m_samples else ""))
    metrics

let result ~correct ~attempted ~failed metrics =
  J.Obj
    [ ("correct", J.Bool correct); ("attempted", J.Int attempted);
      ("failed", J.Int failed);
      ("metrics",
       J.Obj
         (List.map
            (fun x ->
               (x.Pb.m_name, J.Obj [ ("value", J.Float x.Pb.m_value); ("unit", J.Str x.Pb.m_unit) ]))
            metrics)) ]

(* Traced runs write their spans here, under the checkout. *)
let out = ".perfbench-out"

let main ~workload ~seed ~seconds ~trace =
  let setup = List.assoc workload workloads in
  let cfg = { Pb.seed; scale = Pb.Full } in
  let sim = workload <> "host_echo" in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let metrics, attempted, failed, digests =
    if trace = 0 then begin
      let times = ref [] and last = ref None in
      for _ = 1 to setups workload do
        Option.iter (fun (i : Pb.inst) -> i.Pb.teardown ()) !last;
        let inst, t = setup_once setup cfg in
        times := t :: !times;
        last := Some inst
      done;
      let inst = Option.get !last in
      last := None;
      let h0 = Pb.host_ns () in
      let o = timed inst ~seconds in
      let rss = Pb.peak_rss_mb () in
      if not (window_ok inst) then problem "virt window incomplete";
      inst.Pb.teardown ();
      (* A workload that finished its whole population early runs it again
         on fresh set-ups until --seconds have passed. *)
      let os = ref [ o ] in
      while o.phase.Pb.ended && float_of_int (Pb.host_ns () - h0) /. 1e9 < seconds do
        let inst, t = setup_once setup cfg in
        times := t :: !times;
        let e = timed inst ~seconds:0.0 in
        if not (window_ok inst) then problem "virt window incomplete";
        if sim && e.digest <> o.digest then problem "episodes of one seed differ";
        inst.Pb.teardown ();
        os := e :: !os
      done;
      let os = List.rev !os in
      print_endline (speed os);
      ( end_to_end ~setup_s:!times ~rss os,
        List.fold_left (fun a x -> a + attempted x) 0 os,
        List.fold_left (fun a x -> a + failed x) 0 os,
        List.sort_uniq compare (List.map (fun x -> x.digest) os) )
    end
    else begin
      let parts, a, complete = once setup cfg ~seconds in
      if not complete then problem "untraced virt window incomplete";
      Pb.spawned := 0;
      Pb.Span.reset ();
      Pb.Span.enabled := true;
      Padico_obs.Trace.enable ~capacity:(1 lsl 16) ();
      let inst, _ = setup_once setup cfg in
      let inst = { inst with Pb.parts } in
      let o = timed inst ~seconds in
      Padico_obs.Trace.disable ();
      Pb.Span.enabled := false;
      if not (window_ok inst) then problem "traced virt window incomplete";
      if sim && a.digest <> o.digest then
        problem
          (Printf.sprintf "tracing changed the outcome (digest %s untraced, %s traced)"
             a.digest o.digest);
      let layers = per_layer inst ~untraced:(ops_rate a) ~procs:!Pb.spawned o in
      inst.Pb.teardown ();
      let att = attempted a + attempted o and fl = failed a + failed o in
      let fr = Pb.metric ~samples:att "fail_ratio" "failed/attempted" (Pb.ratio fl att) in
      (try
         if not (Sys.file_exists out) then Sys.mkdir out 0o755;
         let file = Filename.concat out (Printf.sprintf "%s-seed%d.trace.json" workload seed) in
         Pb.Span.write_chrome file;
         Printf.printf "trace: %s (%d spans, %d kept)\n" file !Pb.Span.total !Pb.Span.nkept
       with Sys_error e -> problem ("trace file: " ^ e));
      (layers @ [ fr ], att, fl, [ a.digest; o.digest ])
    end
  in
  if failed > 0 then
    problem (Printf.sprintf "%d of %d operations failed" failed attempted);
  if attempted = 0 then problem "no operation completed";
  print_report
    ~title:(Printf.sprintf "%s seed=%d trace=%d" workload seed trace)
    metrics;
  if trace = 0 then
    Printf.printf "  %-38s %16.6g %-17sn=%d\n" "fail_ratio" (Pb.ratio failed attempted)
      "failed/attempted" attempted;
  if sim then List.iter (Printf.printf "digest %s\n") digests;
  List.iter (Printf.printf "problem: %s\n") (List.rev !problems);
  Printf.printf "env %s\n" (J.to_string (env ~workload ~seed ~trace metrics));
  print_endline
    (J.to_string (result ~correct:(!problems = []) ~attempted:(max 1 attempted) ~failed metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end
  else if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end
  else main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace

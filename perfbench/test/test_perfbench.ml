(* The benchmark's own checks, on shrunk workloads: a seed fixes every
   simulated outcome (digest and virt metrics), another seed changes the
   generated inputs, every workload completes without failures, and
   BENCHMARK.json names exactly the metrics the benchmark reports. *)

open Perfbench_core

let sim_workloads = [ "san_mix"; "grid_collectives"; "edge_churn" ]

let run workload seed =
  let _, o, complete =
    Measure.once (List.assoc workload Measure.workloads) { Pb.seed; scale = Pb.Small } ~seconds:0.0
  in
  Alcotest.(check bool) (workload ^ ": window complete") true complete;
  Alcotest.(check int) (workload ^ ": failed ops") 0 (Measure.failed o);
  Alcotest.(check bool) (workload ^ ": ops attempted") true (Measure.attempted o > 0);
  o

let virt o =
  let e2e = Measure.end_to_end ~setup_s:[ 0.0 ] ~rss:0.0 [ o ] in
  List.filter_map
    (fun m ->
       if String.length m.Pb.m_name >= 4 && String.sub m.Pb.m_name 0 4 = "virt" then
         Some (m.Pb.m_name, m.Pb.m_value)
       else None)
    e2e

let same_seed workload () =
  let a = run workload 11 and b = run workload 11 in
  Alcotest.(check string) "digest" a.Measure.digest b.Measure.digest;
  Alcotest.(check (list (pair string (float 0.0)))) "virt metrics" (virt a) (virt b)

let other_seed workload () =
  let a = run workload 11 and b = run workload 12 in
  Alcotest.(check bool) "digests differ" true (a.Measure.digest <> b.Measure.digest)

let inputs_follow_seed () =
  let sizes seed =
    let r = Pb.rng ~seed 3 in
    List.init 32 (fun _ -> Pb.log_uniform r ~lo:4 ~hi:65_536)
  in
  Alcotest.(check (list int)) "same seed" (sizes 5) (sizes 5);
  Alcotest.(check bool) "other seed" true (sizes 5 <> sizes 6);
  List.iter
    (fun n -> Alcotest.(check bool) "in range" true (n >= 4 && n <= 65_536))
    (sizes 7)

let host_echo () = ignore (run "host_echo" 3)

let catalogue () =
  let ic = open_in "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let module J = Padico_obs.Json in
  let json = match J.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let entries key =
    match J.member key json with
    | Some (J.List l) ->
      List.map
        (fun e ->
           let str k = match J.member k e with Some (J.Str s) -> s | _ -> "" in
           (str "name", str "unit", str "better"))
        l
    | _ -> Alcotest.failf "BENCHMARK.json: no %s list" key
  in
  let spec l = List.map (fun (n, u, d) -> (n, u, Spec.dir_name d)) l in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (spec Spec.end_to_end) (entries "end_to_end");
  Alcotest.check triple "per_layer" (spec Spec.per_layer) (entries "per_layer");
  let names =
    match J.member "workloads" json with
    | Some (J.List l) ->
      List.map (fun w -> match J.member "name" w with Some (J.Str s) -> s | _ -> "") l
    | _ -> []
  in
  Alcotest.(check (list string)) "workloads" (List.map fst Measure.workloads) names

let () =
  Alcotest.run "perfbench"
    [ ( "determinism",
        List.map
          (fun w -> Alcotest.test_case (w ^ " same seed") `Quick (same_seed w))
          sim_workloads
        @ List.map
          (fun w -> Alcotest.test_case (w ^ " other seed") `Quick (other_seed w))
          sim_workloads
        @ [ Alcotest.test_case "inputs follow the seed" `Quick inputs_follow_seed ] );
      ("host", [ Alcotest.test_case "host_echo completes" `Quick host_echo ]);
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json matches" `Quick catalogue ]) ]

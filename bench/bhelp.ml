include Scenario

(* Execution backend for the whole bench invocation (set once by main from
   --backend). Experiments that support the host backend consult it; their
   metrics go under distinct keys so wall-clock numbers never overwrite the
   virtual-time trajectory. *)
let backend = ref Padico.Sim

(* Worker-domain count for experiments that can run their grids on the
   sharded parallel engine (set once by main from --domains; 1 runs every
   shard on the calling domain). *)
let domains = ref 1

(* Machine-readable results: experiments record named metrics as they print
   them; the harness writes the accumulated set to BENCH_results.json so CI
   and regression tooling can diff numbers without scraping stdout. *)

let results : (string * float) list ref = ref []

let record ~experiment key value =
  results := (experiment ^ "." ^ key, value) :: !results

(* Metrics already on disk, so a partial run (CI smoke steps run a handful
   of experiments) refreshes its own numbers without erasing the rest of
   the perf trajectory. *)
let previous_results file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Padico_obs.Json.parse s with
    | Ok (Padico_obs.Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
           match v with
           | Padico_obs.Json.Int i -> Some (k, float_of_int i)
           | Padico_obs.Json.Float f -> Some (k, f)
           | _ -> None)
        kvs
    | Ok _ | Error _ -> []
  end

let write_results ?(file = "BENCH_results.json") () =
  let fresh = List.rev !results in
  (* Read the previous metrics *before* open_out truncates the file. *)
  let previous = previous_results file in
  let oc = open_out file in
  let entries =
    List.map
      (fun (k, v) ->
         match List.assoc_opt k fresh with Some v' -> (k, v') | None -> (k, v))
      previous
    @ List.filter (fun (k, _) -> not (List.mem_assoc k previous)) fresh
  in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
       Printf.fprintf oc "  %S: %s%s\n" k
         (if Float.is_integer v && Float.abs v < 1e15 then
            Printf.sprintf "%.0f" v
          else Printf.sprintf "%.6g" v)
         (if i = List.length entries - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "\n%d metrics -> %s\n" (List.length entries) file

(* E13: topology-aware collectives at grid scale.

   An 8-island grid (128 Myrinet nodes per island, one shared VTHD WAN
   backbone, 1024 ranks) runs every collective under both Group strategies.
   The quantity at stake is WAN crossings: the flat rank-0 star pays one
   crossing per rank outside the root's island, the multilevel strategy one
   per cluster per phase. Payload delivered is cross-checked between the two
   strategies (checksums must agree), and the broadcast WAN-message
   reduction is asserted to be at least an order of magnitude. Each Group
   WAN message goes to TCP as one gather-write, so a multilevel run's WAN
   segments per Group WAN message (ACKs, window updates and connection
   set-up included) stay near twice the MSS-sized segments its bytes need:
   15.7 for messages of 6.5 KB on average. The bound [max_frames_per_msg]
   leaves 2x of that; one segment per packed piece read 259. *)

module Bb = Engine.Bytebuf
module Group = Collectives.Group
module Gridgen = Scenario.Gridgen

let clusters = 8
let per_cluster = 128
let payload = 4096 (* bcast / reduce / allreduce *)
let chunk = 64 (* per-rank gather / scatter *)
let max_frames_per_msg = 32.0

let pattern n seed =
  let b = Bb.create n in
  Bb.fill_pattern b ~seed;
  b

type meas = {
  msgs : int;  (* Group-level WAN crossings *)
  bytes : int;
  frames : int;  (* WAN segments, ACKs included *)
  sum : int;  (* checksum of payload delivered, summed over ranks *)
  ns : int;  (* virtual completion time *)
}

(* Engine cost summed over every operation of both strategies. *)
let engine = ref Bhelp.no_engine_cost

(* Run [body r member] as one process per rank, to quiescence; return the
   WAN traffic this operation added and the summed delivery checksum. *)
let measure g nodes groups label body =
  let gm0 = groups.(0) in
  let m0 = Group.wan_messages gm0 and b0 = Group.wan_bytes gm0 in
  let f0 = Simnet.Segment.frames_sent g.Gridgen.wan in
  let t0 = Padico.now g.Gridgen.grid in
  let sum = ref 0 in
  (* Completion = when the last rank's operation finished, not when the
     simulator drained (stale transport timers run long past the op). *)
  let t1 = ref t0 in
  let hs =
    Array.mapi
      (fun r node ->
         Padico.spawn g.Gridgen.grid node
           ~name:(Printf.sprintf "%s-%d" label r)
           (fun () ->
              sum := !sum + body r groups.(r);
              t1 := max !t1 (Padico.now g.Gridgen.grid)))
      nodes
  in
  let cost =
    Bhelp.engine_cost g.Gridgen.grid (fun () -> Scenario.run g.Gridgen.grid)
  in
  engine := Bhelp.add_engine_cost !engine cost;
  Array.iter Scenario.fail_on_error hs;
  { msgs = Group.wan_messages gm0 - m0;
    bytes = Group.wan_bytes gm0 - b0;
    frames = Simnet.Segment.frames_sent g.Gridgen.wan - f0;
    sum = !sum;
    ns = !t1 - t0 }

let run_strategy strategy sname =
  let g = Gridgen.generate ~clusters ~nodes_per_cluster:per_cluster () in
  let nodes = Array.of_list g.Gridgen.nodes in
  let groups =
    Group.create ~strategy g.Gridgen.grid ~name:("e13-" ^ sname)
      g.Gridgen.nodes
  in
  let n = Array.length nodes in
  List.map
    (fun (op_name, body) ->
       (op_name, measure g nodes groups (sname ^ "-" ^ op_name) body))
    [ ("barrier", fun _r gm -> Group.barrier gm; 0);
      ("bcast",
       fun r gm ->
         let buf = if r = 0 then pattern payload 42 else Bb.create 0 in
         Bb.checksum (Group.bcast gm ~root:0 buf));
      ("reduce",
       fun r gm ->
         match
           Group.reduce gm ~root:0 ~op:Group.Sum (pattern payload (r + 1))
         with
         | Some b -> Bb.checksum b
         | None -> 0);
      ("allreduce",
       fun r gm ->
         Bb.checksum
           (Group.allreduce gm ~op:Group.Bxor (pattern payload (r + 1))));
      ("gather",
       fun r gm ->
         match Group.gather gm ~root:0 (pattern chunk (r + 1)) with
         | Some parts ->
           Array.fold_left (fun a b -> a + Bb.checksum b) 0 parts
         | None -> 0);
      ("scatter",
       fun r gm ->
         let parts =
           if r = 0 then Array.init n (fun i -> pattern chunk (i + 1))
           else [||]
         in
         Bb.checksum (Group.scatter gm ~root:0 parts)) ]

(* Cost of the 1024-rank group's circuit on a fresh grid: CPU time of
   [Padico.circuit] and the heap it retains, the nodes' transport stacks
   included. *)
let circuit_cost () =
  let g = Gridgen.generate ~clusters ~nodes_per_cluster:per_cluster () in
  Gc.compact ();
  let w0 = (Gc.stat ()).Gc.live_words and t0 = Sys.time () in
  let cts = Padico.circuit g.Gridgen.grid ~name:"e13-cost" g.Gridgen.nodes in
  let cpu_s = Sys.time () -. t0 in
  Gc.compact ();
  let words = (Gc.stat ()).Gc.live_words - w0 in
  ignore (Sys.opaque_identity cts);
  let mb = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0 in
  Printf.printf "circuit: %.3f s CPU to create, %.1f MB retained\n\n" cpu_s mb;
  Bhelp.record ~experiment:"e13" "circuit_create_s" cpu_s;
  Bhelp.record ~experiment:"e13" "circuit_retained_mb" mb

let run () =
  Scenario.print_header
    (Printf.sprintf
       "E13: collectives at grid scale (%d clusters x %d nodes = %d ranks)"
       clusters per_cluster (clusters * per_cluster));
  circuit_cost ();
  let flat = run_strategy Group.Flat "flat" in
  let ml = run_strategy Group.Multilevel "ml" in
  Printf.printf
    "%-10s %11s %12s %11s %12s %8s %9s %9s\n"
    "op" "flat msgs" "flat bytes" "ml msgs" "ml bytes" "ml segs" "msg x"
    "time x";
  List.iter2
    (fun (op, f) (op', m) ->
       assert (op = op');
       if f.sum <> m.sum then begin
         Printf.eprintf
           "e13 %s: strategies delivered different payloads (%d vs %d)\n" op
           f.sum m.sum;
         exit 1
       end;
       let ratio a b = if b = 0 then Float.nan else float_of_int a /. float_of_int b in
       Printf.printf "%-10s %11d %12d %11d %12d %8d %9.1f %9.2f\n" op f.msgs
         f.bytes m.msgs m.bytes m.frames
         (ratio f.msgs m.msgs)
         (ratio f.ns m.ns);
       Bhelp.record ~experiment:"e13" (op ^ ".flat.wan_msgs")
         (float_of_int f.msgs);
       Bhelp.record ~experiment:"e13" (op ^ ".flat.wan_bytes")
         (float_of_int f.bytes);
       Bhelp.record ~experiment:"e13" (op ^ ".ml.wan_msgs")
         (float_of_int m.msgs);
       Bhelp.record ~experiment:"e13" (op ^ ".ml.wan_bytes")
         (float_of_int m.bytes))
    flat ml;
  let f_bcast = List.assoc "bcast" flat and m_bcast = List.assoc "bcast" ml in
  let msg_ratio =
    float_of_int f_bcast.msgs /. float_of_int (max 1 m_bcast.msgs)
  in
  let byte_ratio =
    float_of_int f_bcast.bytes /. float_of_int (max 1 m_bcast.bytes)
  in
  let ml_total f = List.fold_left (fun a (_, m) -> a + f m) 0 ml in
  let frames_per_msg =
    float_of_int (ml_total (fun m -> m.frames))
    /. float_of_int (max 1 (ml_total (fun m -> m.msgs)))
  in
  Printf.printf
    "\nmultilevel WAN: %d segments for %d messages (%.2f per message)\n"
    (ml_total (fun m -> m.frames)) (ml_total (fun m -> m.msgs)) frames_per_msg;
  Bhelp.record ~experiment:"e13" "wan_frames_per_msg" frames_per_msg;
  print_newline ();
  Bhelp.report_engine_cost ~experiment:"e13" !engine;
  Bhelp.record ~experiment:"e13" "bcast.wan_msg_ratio" msg_ratio;
  Bhelp.record ~experiment:"e13" "bcast.wan_byte_ratio" byte_ratio;
  Printf.printf
    "\nbroadcast WAN reduction: %.0fx messages, %.0fx bytes (flat %d -> multilevel %d msgs)\n"
    msg_ratio byte_ratio f_bcast.msgs m_bcast.msgs;
  if msg_ratio < 10.0 || byte_ratio < 10.0 then begin
    Printf.eprintf
      "e13: multilevel broadcast must cut WAN traffic >= 10x (got %.1fx msgs, %.1fx bytes)\n"
      msg_ratio byte_ratio;
    exit 1
  end;
  if frames_per_msg > max_frames_per_msg then begin
    Printf.eprintf
      "e13: a Group WAN message must cost <= %.0f WAN segments (got %.2f)\n"
      max_frames_per_msg frames_per_msg;
    exit 1
  end

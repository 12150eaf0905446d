module Net = Simnet.Net
module Segment = Simnet.Segment
module Node = Simnet.Node
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics

let log = Logs.Src.create "fault.inject"

module Log = (val Logs.src_log log : Logs.LOG)

type t = {
  net : Net.t;
  mutable fired : int;
  mutable pending : int;
}

(* ---------- name resolution (eager, so typos fail before the run) ---------- *)

let segment_by_name net name =
  match
    List.filter (fun s -> Segment.name s = name) (Net.segments net)
  with
  | [ s ] -> s
  | [] ->
    invalid_arg (Printf.sprintf "Fault plan: unknown link %S" name)
  | _ :: _ ->
    invalid_arg (Printf.sprintf "Fault plan: ambiguous link name %S" name)

let node_by_name net name =
  match List.find_opt (fun n -> Node.name n = name) (Net.nodes net) with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Fault plan: unknown node %S" name)

(* Deterministic trace anchor for link-scoped events. *)
let anchor_of_segment seg =
  match
    List.sort (fun a b -> compare (Node.id a) (Node.id b)) (Segment.nodes seg)
  with
  | n :: _ -> Some n
  | [] -> None

let record anchor ~action ~target =
  Engine.Stats.Counter.incr (Metrics.counter Metrics.Global "fault.injected");
  match anchor with
  | Some node when Trace.on () ->
    Trace.instant node (Padico_obs.Event.Fault { action; target })
  | _ -> ()

(* ---------- execution ---------- *)

let fire t anchor ~action ~target f =
  t.fired <- t.fired + 1;
  t.pending <- t.pending - 1;
  Log.debug (fun m -> m "fault: %s %s" action target);
  record anchor ~action ~target;
  f ()

(* A fault fires on the timeline of the shard that owns the state it
   mutates — a node's up-state, or a segment's overlay, which the senders
   of every shard it spans read — so it lands exactly at its instant. *)
let shard_clock net i =
  if i = 0 then Net.clock net else Engine.Sim.clock (Net.shard_sim net i)

let owner_shard net ~what nodes =
  match List.sort_uniq compare (List.map (Net.shard_of net) nodes) with
  | [] -> 0
  | [ i ] -> i
  | _ :: _ ->
    invalid_arg
      (Printf.sprintf
         "Fault plan: %s spans several shards; its fault state is read on \
          each of them, so no one shard's event can change it at one instant"
         what)

let schedule t shard at_ns anchor ~action ~target f =
  t.pending <- t.pending + 1;
  Engine.Clock.at (shard_clock t.net shard) at_ns (fun () ->
      fire t anchor ~action ~target f)

let segment_shard t link seg =
  owner_shard t.net ~what:("link " ^ link) (Segment.nodes seg)

let cross_blocks net ~group_a ~group_b =
  let a_nodes = List.map (node_by_name net) group_a in
  let b_nodes = List.map (node_by_name net) group_b in
  List.concat_map
    (fun seg ->
       List.concat_map
         (fun a ->
            List.filter_map
              (fun b ->
                 if Node.id a <> Node.id b && Segment.attached seg a
                    && Segment.attached seg b
                 then Some (seg, Node.id a, Node.id b)
                 else None)
              b_nodes)
         a_nodes)
    (Net.segments net)

let arm t ({ Plan.at_ns; action } : Plan.event) =
  let action_name = Plan.action_name action in
  let target = Plan.target_name action in
  match action with
  | Plan.Link_down link ->
    let seg = segment_by_name t.net link in
    schedule t (segment_shard t link seg) at_ns (anchor_of_segment seg)
      ~action:action_name ~target (fun () -> Segment.set_down seg true)
  | Plan.Link_up link ->
    let seg = segment_by_name t.net link in
    schedule t (segment_shard t link seg) at_ns (anchor_of_segment seg)
      ~action:action_name ~target (fun () -> Segment.set_down seg false)
  | Plan.Loss_burst { link; loss; duration_ns } ->
    let seg = segment_by_name t.net link in
    let shard = segment_shard t link seg in
    let anchor = anchor_of_segment seg in
    schedule t shard at_ns anchor ~action:action_name ~target (fun () ->
        Segment.set_extra_loss seg loss);
    (* Windows restore to clean rather than nest: when bursts overlap, the
       last window to end wins. *)
    schedule t shard (at_ns + duration_ns) anchor
      ~action:(action_name ^ "-end") ~target (fun () ->
        Segment.set_extra_loss seg 0.0)
  | Plan.Latency_spike { link; add_ns; duration_ns } ->
    let seg = segment_by_name t.net link in
    let shard = segment_shard t link seg in
    let anchor = anchor_of_segment seg in
    schedule t shard at_ns anchor ~action:action_name ~target (fun () ->
        Segment.set_extra_latency seg add_ns);
    schedule t shard (at_ns + duration_ns) anchor
      ~action:(action_name ^ "-end") ~target (fun () ->
        Segment.set_extra_latency seg 0)
  | Plan.Node_crash name ->
    let node = node_by_name t.net name in
    schedule t (Net.shard_of t.net node) at_ns (Some node)
      ~action:action_name ~target (fun () -> Node.set_up node false)
  | Plan.Node_restart name ->
    let node = node_by_name t.net name in
    schedule t (Net.shard_of t.net node) at_ns (Some node)
      ~action:action_name ~target (fun () -> Node.set_up node true)
  | Plan.Partition { group_a; group_b } ->
    let blocks = cross_blocks t.net ~group_a ~group_b in
    let shard =
      owner_shard t.net ~what:"partition"
        (List.concat_map (fun (seg, _, _) -> Segment.nodes seg) blocks)
    in
    let anchor = Some (node_by_name t.net (List.hd group_a)) in
    schedule t shard at_ns anchor ~action:action_name ~target (fun () ->
        List.iter (fun (seg, a, b) -> Segment.block_pair seg a b) blocks)
  | Plan.Heal ->
    (* One heal per shard, clearing the segments that lie on it: a
       segment spanning shards never holds a plan's block, since a
       partition there is refused. *)
    for i = 0 to Net.shards t.net - 1 do
      let on_i n = Net.shard_of t.net n = i in
      match List.find_opt on_i (Net.nodes t.net) with
      | None when i > 0 -> ()
      | anchor ->
        let segs =
          List.filter
            (fun seg -> List.for_all on_i (Segment.nodes seg))
            (Net.segments t.net)
        in
        schedule t i at_ns anchor ~action:action_name ~target (fun () ->
            List.iter Segment.clear_blocked segs)
    done

let apply ?(base_ns = 0) net plan =
  let t = { net; fired = 0; pending = 0 } in
  let plan =
    if base_ns = 0 then plan
    else List.map (fun ev -> { ev with Plan.at_ns = ev.Plan.at_ns + base_ns }) plan
  in
  List.iter (arm t)
    (List.stable_sort
       (fun a b -> compare a.Plan.at_ns b.Plan.at_ns)
       plan);
  t

let fired t = t.fired

let pending t = t.pending

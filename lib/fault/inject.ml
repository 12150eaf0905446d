module Net = Simnet.Net
module Segment = Simnet.Segment
module Node = Simnet.Node
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics

let log = Logs.Src.create "fault.inject"

module Log = (val Logs.src_log log : Logs.LOG)

(* Atomic: a plan's parts fire on every shard of a parallel run. *)
type t = {
  net : Net.t;
  fired : int Atomic.t;
  pending : int Atomic.t;
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

(* ---------- execution ---------- *)

(* A fault fires on the timeline of the shard that owns the state it
   mutates (a node's up-state, a port's overlay), so it lands exactly at
   its instant. *)
let shard_clock net i =
  if i = 0 then Net.clock net else Engine.Sim.clock (Net.shard_sim net i)

(* [nodes] by shard, lowest shard first, each group in id order: one part
   of an event per shard, anchored on the group's head. *)
let by_shard net nodes =
  let key n = (Net.shard_of net n, Node.id n) in
  List.fold_right
    (fun n acc ->
       match acc with
       | (s, ns) :: rest when s = Net.shard_of net n -> (s, n :: ns) :: rest
       | _ -> (Net.shard_of net n, [ n ]) :: acc)
    (List.sort_uniq (fun a b -> compare (key a) (key b)) nodes)
    []

(* One plan event: [f shard nodes] runs at [at_ns] on each shard holding
   some of [nodes], with that shard's share. The first part to run counts
   the event, so [fired] counts plan events on any partition. *)
let schedule t at_ns ~action ~target nodes f =
  let counted = Atomic.make false in
  let parts = match by_shard t.net nodes with [] -> [ (0, []) ] | p -> p in
  Atomic.incr t.pending;
  List.iter
    (fun (shard, nodes) ->
       Engine.Clock.at (shard_clock t.net shard) at_ns (fun () ->
           if not (Atomic.exchange counted true) then begin
             Atomic.incr t.fired;
             Atomic.decr t.pending;
             Log.debug (fun m -> m "fault: %s %s" action target);
             Engine.Stats.Counter.incr
               (Metrics.counter Metrics.Global "fault.injected")
           end;
           (match nodes with
            | anchor :: _ when Trace.on () ->
              Trace.instant anchor (Padico_obs.Event.Fault { action; target })
            | _ -> ());
           f shard nodes))
    parts

(* Both directions of every pair across the groups that shares a segment,
   as (segment, sender, peer id). *)
let cross_blocks net ~group_a ~group_b =
  List.concat_map
    (fun a ->
       List.concat_map
         (fun seg ->
            List.concat_map
              (fun b ->
                 if Node.id a <> Node.id b && Segment.attached seg b then
                   [ (seg, a, Node.id b); (seg, b, Node.id a) ]
                 else [])
              group_b)
         (Net.segments_of net a))
    group_a

let arm t ({ Plan.at_ns; action } : Plan.event) =
  let action_name = Plan.action_name action in
  let target = Plan.target_name action in
  (* A link-scoped event: [f seg ports] on each spanned shard's ports. *)
  let on_ports ?(at = at_ns) ?(name = action_name) link f =
    let seg = segment_by_name t.net link in
    schedule t at ~action:name ~target (Segment.nodes seg) (fun _ ports ->
        f seg ports)
  in
  match action with
  | Plan.Link_down link ->
    on_ports link (fun seg ports -> Segment.set_down ~ports seg true)
  | Plan.Link_up link ->
    on_ports link (fun seg ports -> Segment.set_down ~ports seg false)
  | Plan.Loss_burst { link; loss; duration_ns } ->
    on_ports link (fun seg ports -> Segment.set_extra_loss ~ports seg loss);
    (* Windows restore to clean rather than nest: when bursts overlap, the
       last window to end wins. *)
    on_ports ~at:(at_ns + duration_ns) ~name:(action_name ^ "-end") link
      (fun seg ports -> Segment.set_extra_loss ~ports seg 0.0)
  | Plan.Latency_spike { link; add_ns; duration_ns } ->
    on_ports link (fun seg ports -> Segment.set_extra_latency ~ports seg add_ns);
    on_ports ~at:(at_ns + duration_ns) ~name:(action_name ^ "-end") link
      (fun seg ports -> Segment.set_extra_latency ~ports seg 0)
  | Plan.Node_crash name ->
    let node = node_by_name t.net name in
    schedule t at_ns ~action:action_name ~target [ node ] (fun _ _ ->
        Node.set_up node false)
  | Plan.Node_restart name ->
    let node = node_by_name t.net name in
    schedule t at_ns ~action:action_name ~target [ node ] (fun _ _ ->
        Node.set_up node true)
  | Plan.Partition { group_a; group_b } ->
    let group_a = List.map (node_by_name t.net) group_a in
    let group_b = List.map (node_by_name t.net) group_b in
    let blocks = cross_blocks t.net ~group_a ~group_b in
    schedule t at_ns ~action:action_name ~target (group_a @ group_b)
      (fun shard _ ->
         List.iter
           (fun (seg, node, peer) ->
              if Net.shard_of t.net node = shard then
                Segment.block seg node ~peer)
           blocks)
  | Plan.Heal ->
    schedule t at_ns ~action:action_name ~target (Net.nodes t.net)
      (fun _ nodes ->
         List.iter
           (fun n ->
              List.iter
                (fun seg -> Segment.clear_blocked ~ports:[ n ] seg)
                (Net.segments_of t.net n))
           nodes)

let apply ?(base_ns = 0) net plan =
  let t = { net; fired = Atomic.make 0; pending = Atomic.make 0 } in
  let plan =
    if base_ns = 0 then plan
    else List.map (fun ev -> { ev with Plan.at_ns = ev.Plan.at_ns + base_ns }) plan
  in
  List.iter (arm t)
    (List.stable_sort
       (fun a b -> compare a.Plan.at_ns b.Plan.at_ns)
       plan);
  t

let fired t = Atomic.get t.fired

let pending t = Atomic.get t.pending

(* A grid is [shards] >= 1 slices, one simulator heap each. Shard 0's
   simulator is the grid's root [sim], so setup code that schedules
   through [Net.sim] works at any shard count. The partition is fixed at
   node creation (per-node [?shard]). Every grid runs on the conservative
   [Engine.Shard] runtime, built on the first [run], when every
   cross-shard segment's latency becomes the (i, j) lookahead floor; one
   shard is a 1x1 matrix with no channel. *)
type t = {
  sims : Engine.Sim.t array; (* sims.(0) is the grid's root sim *)
  mutable shard_by_id : int array; (* node id -> shard; ids are dense *)
  mutable runtime : Engine.Shard.t option;
  (* Insertion-order collections kept reversed so additions are O(1); the
     accessors re-reverse. Grid-scale scenarios (thousands of nodes) made
     the old [l @ [x]] appends and linear lookups quadratic. *)
  mutable nodes_rev : Node.t list;
  mutable segments_rev : Segment.t list;
  by_id : (int, Node.t) Hashtbl.t;
  loopbacks : (int, Segment.t) Hashtbl.t;
  (* Per-node adjacency (reversed, same relative order as the global
     segment list) so pair queries never scan every segment in the grid. *)
  adjacency : (int, Segment.t list ref) Hashtbl.t;
  mutable next_id : int;
  clock : Engine.Clock.t;
}

let create ?seed ?clock ?(shards = 1) () =
  if shards < 1 then invalid_arg "Net.create: shards must be >= 1";
  if shards > 1 && clock <> None then
    invalid_arg
      "Net.create: a sharded grid runs on its own simulated clocks; \
       combining ~shards with a ?clock backend is not supported";
  let sim = Engine.Sim.create ?seed () in
  (* Sibling shard seeds come from keyed (non-advancing) children of the
     root generator, so the root sim's own draw sequence is untouched by
     how many shards exist. *)
  let root = Engine.Sim.rng sim in
  let sims =
    Array.init shards (fun i ->
        if i = 0 then sim
        else
          let r = Engine.Rng.stream root i in
          Engine.Sim.create ~seed:(Engine.Rng.int r 0x3FFFFFFF) ())
  in
  let clock =
    match clock with Some c -> c | None -> Engine.Sim.clock sim
  in
  { sims; shard_by_id = Array.make 64 0; runtime = None;
    nodes_rev = []; segments_rev = []; by_id = Hashtbl.create 64;
    loopbacks = Hashtbl.create 64; adjacency = Hashtbl.create 64;
    next_id = 0; clock }

let sim t = t.sims.(0)
let clock t = t.clock
let shards t = Array.length t.sims

let shard_of_id t id =
  if id >= 0 && id < Array.length t.shard_by_id then t.shard_by_id.(id)
  else 0

let shard_of t node = shard_of_id t (Node.id node)

let shard_sim t i =
  if i < 0 || i >= Array.length t.sims then
    invalid_arg "Net.shard_sim: no such shard";
  t.sims.(i)

let nodes t = List.rev t.nodes_rev
let segments t = List.rev t.segments_rev

(* Build the Shard runtime: lookahead(i, j) = the minimum latency of any
   segment spanning shards i and j. Every arrival computed by
   [Segment.send] is >= now + latency (serialization, jitter and fault
   spikes only add), so that minimum is a sound conservative bound — and
   it must be strictly positive, or the shards could never run ahead of
   each other. *)
let shard_runtime t =
  match t.runtime with
  | Some r -> r
  | None ->
    let n = Array.length t.sims in
    let lookahead = Array.make_matrix n n max_int in
    List.iter
      (fun seg ->
         let spans =
           List.sort_uniq compare (List.map (shard_of t) (Segment.nodes seg))
         in
         match spans with
         | [] | [ _ ] -> ()
         | many ->
           let lat = (Segment.model seg).Linkmodel.latency_ns in
           if lat <= 0 then
             invalid_arg
               (Printf.sprintf
                  "Net: segment %s spans several shards but has zero \
                   latency — no lookahead for conservative \
                   synchronization (raise the latency or co-locate its \
                   nodes)"
                  (Segment.name seg));
           List.iter
             (fun i ->
                List.iter
                  (fun j ->
                     if i <> j && lat < lookahead.(i).(j) then
                       lookahead.(i).(j) <- lat)
                  many)
             many)
      (segments t);
    let r = Engine.Shard.create ~lookahead t.sims in
    t.runtime <- Some r;
    r

(* The segments' cross-shard hook: only a frame between nodes on
   different simulators calls it, during a run. *)
let cross t ~src ~dst ~ts f =
  Engine.Shard.post (shard_runtime t) ~src:(shard_of_id t src)
    ~dst:(shard_of_id t dst) ~ts f

(* The runtime fixes the lookahead matrix and the shards' ownership of
   nodes, so the first run freezes a grid of several shards. One shard
   has no channel and no lookahead to invalidate: it stays open. *)
let check_mutable t what =
  if Option.is_some t.runtime && Array.length t.sims > 1 then
    invalid_arg
      (Printf.sprintf
         "Net.%s: the sharded runtime is already built (topology is \
          frozen by the first run)" what)

let new_segment t model ~name =
  Segment.create ~rng:(Engine.Sim.rng (sim t)) ~cross:(cross t) model ~name

let adj t node =
  match Hashtbl.find_opt t.adjacency (Node.id node) with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.adjacency (Node.id node) l;
    l

let add_node ?(shard = 0) t name =
  check_mutable t "add_node";
  if shard < 0 || shard >= Array.length t.sims then
    invalid_arg
      (Printf.sprintf "Net.add_node: shard %d out of range [0, %d)" shard
         (Array.length t.sims));
  let sim = t.sims.(shard) in
  let clock = if shard = 0 then t.clock else Engine.Sim.clock sim in
  let node = Node.create ~clock sim ~id:t.next_id ~name in
  if t.next_id >= Array.length t.shard_by_id then begin
    let a = Array.make (2 * Array.length t.shard_by_id) 0 in
    Array.blit t.shard_by_id 0 a 0 t.next_id;
    t.shard_by_id <- a
  end;
  t.shard_by_id.(t.next_id) <- shard;
  t.next_id <- t.next_id + 1;
  t.nodes_rev <- node :: t.nodes_rev;
  Hashtbl.replace t.by_id (Node.id node) node;
  let lo = new_segment t Presets.loopback ~name:(name ^ "/lo") in
  Segment.attach lo node;
  Hashtbl.replace t.loopbacks (Node.id node) lo;
  t.segments_rev <- lo :: t.segments_rev;
  let l = adj t node in
  l := lo :: !l;
  node

let add_segment t model ?name nodes =
  check_mutable t "add_segment";
  let name = match name with Some n -> n | None -> model.Linkmodel.name in
  let seg = new_segment t model ~name in
  List.iter
    (fun node ->
       if not (Segment.attached seg node) then begin
         Segment.attach seg node;
         let l = adj t node in
         l := seg :: !l
       end)
    nodes;
  t.segments_rev <- seg :: t.segments_rev;
  seg

let node_by_id t id = Hashtbl.find_opt t.by_id id

let loopback_of t node =
  match Hashtbl.find_opt t.loopbacks (Node.id node) with
  | Some s -> s
  | None -> invalid_arg "Net.loopback_of: unknown node"

let segments_of t node =
  match Hashtbl.find_opt t.adjacency (Node.id node) with
  | Some l -> List.rev !l
  | None -> []

let ranked_segments_of t node =
  List.stable_sort
    (fun s1 s2 ->
       compare
         (Segment.model s2).Linkmodel.bandwidth_bps
         (Segment.model s1).Linkmodel.bandwidth_bps)
    (segments_of t node)

let links_between t a b =
  if Node.id a = Node.id b then [ loopback_of t a ]
  else List.filter (fun s -> Segment.attached s b) (ranked_segments_of t a)

let best_link t a b =
  match links_between t a b with [] -> None | s :: _ -> Some s

let run ?until ?domains t = Engine.Shard.run ?domains ?until (shard_runtime t)

(* Outside a run, and before the runtime exists, shard 0's clock. *)
let now t =
  match t.runtime with
  | Some r -> Engine.Shard.now r
  | None -> Engine.Sim.now t.sims.(0)

let spawn t node ?name f =
  ignore t;
  Node.spawn node ?name f

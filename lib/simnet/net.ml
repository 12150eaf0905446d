(* Sharded mode: the grid is partitioned into [shards] slices, one
   simulator heap each, run by [Engine.Shard] under conservative
   synchronization. Shard 0's simulator doubles as the grid's root [sim]
   so setup code that schedules through [Net.sim] keeps working. The
   partition is fixed at node creation (per-node [?shard]) and the
   runtime is built lazily on the first [run]: at that point every
   cross-shard segment's latency becomes the (i, j) lookahead floor. *)
type sharded = {
  sims : Engine.Sim.t array; (* sims.(0) == the grid's root sim *)
  shard_by_node : (int, int) Hashtbl.t;
  mutable runtime : Engine.Shard.t option;
}

type t = {
  sim : Engine.Sim.t;
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
  sharded : sharded option;
}

let create ?seed ?clock ?shards () =
  let sim = Engine.Sim.create ?seed () in
  let sharded =
    match shards with
    | None -> None
    | Some n ->
      if n < 1 then invalid_arg "Net.create: shards must be >= 1";
      if clock <> None then
        invalid_arg
          "Net.create: a sharded grid runs on its own simulated clocks; \
           combining ~shards with a ?clock backend is not supported";
      (* Sibling shard seeds come from keyed (non-advancing) children of
         the root generator, so the root sim's own draw sequence is
         untouched by how many shards exist. *)
      let root = Engine.Sim.rng sim in
      let sims =
        Array.init n (fun i ->
            if i = 0 then sim
            else
              let r = Engine.Rng.stream root i in
              Engine.Sim.create ~seed:(Engine.Rng.int r 0x3FFFFFFF) ())
      in
      Some { sims; shard_by_node = Hashtbl.create 64; runtime = None }
  in
  let clock =
    match clock with Some c -> c | None -> Engine.Sim.clock sim
  in
  { sim; nodes_rev = []; segments_rev = []; by_id = Hashtbl.create 64;
    loopbacks = Hashtbl.create 64; adjacency = Hashtbl.create 64;
    next_id = 0; clock; sharded }

let sim t = t.sim
let clock t = t.clock

let shards t =
  match t.sharded with None -> 1 | Some s -> Array.length s.sims

let shard_of t node =
  match t.sharded with
  | None -> 0
  | Some s ->
    (match Hashtbl.find_opt s.shard_by_node (Node.id node) with
     | Some i -> i
     | None -> 0)

let shard_sim t i =
  match t.sharded with
  | None ->
    if i <> 0 then invalid_arg "Net.shard_sim: grid is not sharded";
    t.sim
  | Some s ->
    if i < 0 || i >= Array.length s.sims then
      invalid_arg "Net.shard_sim: no such shard";
    s.sims.(i)

let check_mutable t what =
  match t.sharded with
  | Some { runtime = Some _; _ } ->
    invalid_arg
      (Printf.sprintf
         "Net.%s: the sharded runtime is already built (topology is \
          frozen by the first run)" what)
  | _ -> ()

let adj t node =
  match Hashtbl.find_opt t.adjacency (Node.id node) with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.replace t.adjacency (Node.id node) l;
    l

let add_node ?(shard = 0) t name =
  check_mutable t "add_node";
  let sim =
    match t.sharded with
    | None ->
      if shard <> 0 then
        invalid_arg "Net.add_node: ~shard requires Net.create ~shards";
      t.sim
    | Some s ->
      if shard < 0 || shard >= Array.length s.sims then
        invalid_arg
          (Printf.sprintf "Net.add_node: shard %d out of range [0, %d)"
             shard (Array.length s.sims));
      s.sims.(shard)
  in
  let clock =
    match t.sharded with
    | None -> t.clock
    | Some _ -> Engine.Sim.clock sim
  in
  let node = Node.create ~clock sim ~id:t.next_id ~name in
  (match t.sharded with
   | Some s -> Hashtbl.replace s.shard_by_node t.next_id shard
   | None -> ());
  t.next_id <- t.next_id + 1;
  t.nodes_rev <- node :: t.nodes_rev;
  Hashtbl.replace t.by_id (Node.id node) node;
  let lo = Segment.create sim Presets.loopback ~name:(name ^ "/lo") in
  Segment.attach lo node;
  Hashtbl.replace t.loopbacks (Node.id node) lo;
  t.segments_rev <- lo :: t.segments_rev;
  let l = adj t node in
  l := lo :: !l;
  node

let add_segment t model ?name nodes =
  check_mutable t "add_segment";
  let name = match name with Some n -> n | None -> model.Linkmodel.name in
  (* The segment's home simulator (randomness ancestry, classic-mode
     scheduling) is its first node's shard; in sharded mode each send
     actually runs on the sending node's shard regardless. *)
  let home =
    match t.sharded, nodes with
    | Some _, node :: _ -> Node.sim node
    | _ -> t.sim
  in
  let seg = Segment.create home model ~name in
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

let nodes t = List.rev t.nodes_rev
let segments t = List.rev t.segments_rev

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

(* Build the Shard runtime: lookahead(i, j) = the minimum latency of any
   segment spanning shards i and j. Every arrival computed by
   [Segment.send] is >= now + latency (serialization, jitter and fault
   spikes only add), so that minimum is a sound conservative bound — and
   it must be strictly positive, or the shards could never run ahead of
   each other. *)
let finalize t =
  match t.sharded with
  | None -> None
  | Some s ->
    (match s.runtime with
     | Some r -> Some r
     | None ->
       let n = Array.length s.sims in
       let lookahead = Array.make_matrix n n max_int in
       List.iter
         (fun seg ->
            let spans =
              List.sort_uniq compare
                (List.map (shard_of t) (Segment.nodes seg))
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
                      synchronization (raise the latency or co-locate \
                      its nodes)"
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
       let r = Engine.Shard.create ~lookahead s.sims in
       let shard_of_id id =
         match Hashtbl.find_opt s.shard_by_node id with
         | Some i -> i
         | None -> 0
       in
       let post = Engine.Shard.post r in
       List.iter
         (fun seg -> Segment.enable_sharding seg ~shard_of:shard_of_id ~post)
         (segments t);
       s.runtime <- Some r;
       Some r)

let shard_runtime t = finalize t

let run ?until ?domains t =
  match finalize t with
  | None ->
    (match domains with
     | Some d when d > 1 ->
       invalid_arg "Net.run: ~domains requires a sharded grid (Net.create \
                    ~shards)"
     | _ -> ());
    Engine.Sim.run ?until t.sim
  | Some r -> Engine.Shard.run ?domains ?until r

let now t =
  match t.sharded with
  | None -> Engine.Sim.now t.sim
  | Some s ->
    Array.fold_left (fun acc sim -> max acc (Engine.Sim.now sim)) 0 s.sims

let spawn t node ?name f =
  ignore t;
  Node.spawn node ?name f

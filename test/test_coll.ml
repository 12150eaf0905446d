module Bb = Engine.Bytebuf
module Netdb = Selector.Netdb
module Tree = Collectives.Tree
module Group = Collectives.Group

(* ---------- Netdb: topology partition ---------- *)

let test_netdb_two_clusters () =
  let grid, a1, a2, b1, b2 = Tutil.two_clusters ~wan:Simnet.Presets.vthd () in
  let db = Netdb.build (Padico.net grid) [| a1; a2; b1; b2 |] in
  Tutil.check_int "size" 4 (Netdb.size db);
  Tutil.check_int "two clusters" 2 (Netdb.cluster_count db);
  Tutil.check_int "a1 in cluster 0" 0 (Netdb.cluster_of db 0);
  Tutil.check_int "a2 in cluster 0" 0 (Netdb.cluster_of db 1);
  Tutil.check_int "b1 in cluster 1" 1 (Netdb.cluster_of db 2);
  Tutil.check_int "b2 in cluster 1" 1 (Netdb.cluster_of db 3);
  Tutil.check_int "leader 0" 0 (Netdb.leader db 0);
  Tutil.check_int "leader 1" 2 (Netdb.leader db 1);
  Tutil.check_int "position of b2" 1 (Netdb.position db 3);
  Tutil.check_string "san island" "san"
    (Netdb.level_name (Netdb.cluster_level db 0));
  Tutil.check_string "intra hop" "san" (Netdb.level_name (Netdb.hop_level db 0 1));
  Tutil.check_string "inter hop" "wan" (Netdb.level_name (Netdb.hop_level db 1 2))

let test_netdb_lan_cluster () =
  (* Only an Ethernet (LAN) segment: one cluster at level lan. *)
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.ethernet100 in
  let db = Netdb.build (Padico.net grid) [| a; b |] in
  Tutil.check_int "one cluster" 1 (Netdb.cluster_count db);
  Tutil.check_string "lan level" "lan"
    (Netdb.level_name (Netdb.cluster_level db 0))

let test_netdb_same_host_and_singleton () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore (Padico.add_segment grid Simnet.Presets.vthd [ a; b ]);
  (* Two ranks on one host cluster together even with no SAN/LAN; the
     remote rank is a singleton San cluster across the WAN. *)
  let db = Netdb.build (Padico.net grid) [| a; a; b |] in
  Tutil.check_int "two clusters" 2 (Netdb.cluster_count db);
  Tutil.check_int "ranks 0,1 share" (Netdb.cluster_of db 0)
    (Netdb.cluster_of db 1);
  Tutil.check_string "singleton is san" "san"
    (Netdb.level_name (Netdb.cluster_level db (Netdb.cluster_of db 2)));
  Tutil.check_string "cross hop" "wan"
    (Netdb.level_name (Netdb.hop_level db 0 2))

(* ---------- Tree: binomial navigation ---------- *)

let test_tree_properties () =
  List.iter
    (fun m ->
       let seen = Array.make m 0 in
       for v = 0 to m - 1 do
         Tree.iter_children ~m v (fun c ->
             Tutil.check_int
               (Printf.sprintf "parent of %d (m=%d)" c m)
               v (Tree.parent c);
             seen.(c) <- seen.(c) + 1)
       done;
       (* Every non-root vrank is the child of exactly one parent. *)
       Tutil.check_int "root has no parent edge" 0 seen.(0);
       for v = 1 to m - 1 do
         Tutil.check_int (Printf.sprintf "vrank %d has one parent" v) 1
           seen.(v)
       done;
       (* child_toward finds the unique child whose range holds the target. *)
       for v = 0 to m - 1 do
         for target = v + 1 to Tree.subtree_last ~m v - 1 do
           let c = Tree.child_toward ~m v ~target in
           Tutil.check_bool "routes into child range" true
             (c <= target && target < Tree.subtree_last ~m c);
           Tutil.check_int "route is a child" v (Tree.parent c)
         done
       done)
    [ 1; 2; 3; 5; 8; 13; 16; 31 ]

(* ---------- collectives correctness ---------- *)

let byte_buf len v =
  let b = Bb.create len in
  for i = 0 to len - 1 do
    Bb.set_u8 b i v
  done;
  b

(* Run one process per rank executing [body rank member] and drive the grid
   to quiescence. *)
let run_members grid nodes members body =
  let handles =
    List.mapi
      (fun r node ->
         Padico.spawn grid node ~name:(Printf.sprintf "rank%d" r)
           (fun () -> body r members.(r)))
      nodes
  in
  Tutil.run_grid grid;
  List.iter Tutil.assert_done handles

let four_node_grid () =
  let grid, a1, a2, b1, b2 = Tutil.two_clusters ~wan:Simnet.Presets.vthd () in
  (grid, [ a1; a2; b1; b2 ])

let test_all_ops strategy =
  let grid, nodes = four_node_grid () in
  let members =
    Group.create ~strategy grid ~name:"ops" nodes
  in
  let n = List.length nodes in
  let bcasts = Array.make n None in
  let reds = Array.make n None in
  let alls = Array.make n None in
  let gaths = Array.make n None in
  let scats = Array.make n None in
  let root_payload = Tutil.pattern_buf ~seed:42 1000 in
  run_members grid nodes members (fun r g ->
      Group.barrier g;
      bcasts.(r) <- Some (Group.bcast g ~root:1 root_payload);
      reds.(r) <- Some (Group.reduce g ~root:2 ~op:Group.Sum (byte_buf 4 (10 + r)));
      alls.(r) <- Some (Group.allreduce g ~op:Group.Max (byte_buf 4 (10 + r)));
      gaths.(r) <- Some (Group.gather g ~root:0 (Tutil.pattern_buf ~seed:r (8 + r)));
      scats.(r) <-
        Some
          (Group.scatter g ~root:3
             (Array.init n (fun i -> byte_buf 16 (i + 1))));
      Group.barrier g);
  for r = 0 to n - 1 do
    (match bcasts.(r) with
     | Some p -> Tutil.check_bool "bcast payload" true (Bb.equal p root_payload)
     | None -> Alcotest.failf "rank %d missed bcast" r);
    (match reds.(r) with
     | Some res ->
       if r = 2 then (
         match res with
         | Some p ->
           Tutil.check_int "sum at root" ((10 + 11 + 12 + 13) land 0xff)
             (Bb.get_u8 p 0)
         | None -> Alcotest.fail "root reduce missing result")
       else Tutil.check_bool "non-root reduce has no result" true (res = None)
     | None -> Alcotest.failf "rank %d missed reduce" r);
    (match alls.(r) with
     | Some p -> Tutil.check_int "allreduce max" 13 (Bb.get_u8 p 0)
     | None -> Alcotest.failf "rank %d missed allreduce" r);
    (match gaths.(r) with
     | Some res ->
       if r = 0 then (
         match res with
         | Some arr ->
           Tutil.check_int "gathered all" n (Array.length arr);
           Array.iteri
             (fun i p ->
                Tutil.check_bool
                  (Printf.sprintf "gather entry %d" i)
                  true
                  (Bb.equal p (Tutil.pattern_buf ~seed:i (8 + i))))
             arr
         | None -> Alcotest.fail "root gather missing result")
       else Tutil.check_bool "non-root gather empty" true (res = None)
     | None -> Alcotest.failf "rank %d missed gather" r);
    match scats.(r) with
    | Some p ->
      Tutil.check_bool
        (Printf.sprintf "scatter entry %d" r)
        true
        (Bb.equal p (byte_buf 16 (r + 1)))
    | None -> Alcotest.failf "rank %d missed scatter" r
  done

let test_ops_flat () = test_all_ops Group.Flat
let test_ops_multilevel () = test_all_ops Group.Multilevel

let test_three_cluster_allreduce () =
  (* Deeper trees: 3 islands x 3 nodes, allreduce with byte-wise sum. *)
  let grid = Padico.create () in
  let nodes =
    List.concat_map
      (fun c ->
         let island =
           List.init 3 (fun i ->
               Padico.add_node grid (Printf.sprintf "n%d-%d" c i))
         in
         ignore
           (Padico.add_segment grid Simnet.Presets.myrinet2000
              ~name:(Printf.sprintf "san%d" c)
              island);
         island)
      [ 0; 1; 2 ]
  in
  ignore (Padico.add_segment grid Simnet.Presets.vthd ~name:"wan" nodes);
  let members = Group.create grid ~name:"tri" nodes in
  let db = Group.netdb members.(0) in
  Tutil.check_int "three clusters" 3 (Netdb.cluster_count db);
  let n = List.length nodes in
  let results = Array.make n None in
  run_members grid nodes members (fun r g ->
      results.(r) <- Some (Group.allreduce g ~op:Group.Sum (byte_buf 8 (r + 1))));
  let expected = (List.init n (fun i -> i + 1) |> List.fold_left ( + ) 0) land 0xff in
  Array.iteri
    (fun r res ->
       match res with
       | Some p ->
         Tutil.check_int (Printf.sprintf "rank %d sum" r) expected
           (Bb.get_u8 p 0)
       | None -> Alcotest.failf "rank %d missed allreduce" r)
    results

(* ---------- WAN crossing accounting ---------- *)

let test_wan_counts () =
  (* Multilevel bcast crosses each WAN boundary exactly once (C - 1
     messages); flat pays one per remote rank. *)
  let grid, nodes = four_node_grid () in
  let ml = Group.create ~strategy:Group.Multilevel grid ~name:"wml" nodes in
  run_members grid nodes ml (fun _ g ->
      ignore (Group.bcast g ~root:0 (Bb.create 256)));
  Tutil.check_int "multilevel bcast wan msgs" 1 (Group.wan_messages ml.(0));
  let grid, nodes = four_node_grid () in
  let fl = Group.create ~strategy:Group.Flat grid ~name:"wfl" nodes in
  run_members grid nodes fl (fun _ g ->
      ignore (Group.bcast g ~root:0 (Bb.create 256)));
  Tutil.check_int "flat bcast wan msgs" 2 (Group.wan_messages fl.(0));
  Tutil.check_bool "flat wan bytes dominate" true
    (Group.wan_bytes fl.(0) > Group.wan_bytes ml.(0))

let test_barrier_wan_round_trip () =
  let grid, nodes = four_node_grid () in
  let ml = Group.create ~strategy:Group.Multilevel grid ~name:"wbar" nodes in
  run_members grid nodes ml (fun _ g -> Group.barrier g);
  (* One up crossing, one down crossing. *)
  Tutil.check_int "barrier wan msgs" 2 (Group.wan_messages ml.(0))

(* ---------- failure: deadline instead of hang ---------- *)

let test_deadline_no_hang () =
  let grid = Padico.create () in
  let mk c i = Padico.add_node grid (Printf.sprintf "%c%d" c i) in
  let a1 = mk 'a' 1 and a2 = mk 'a' 2 and b1 = mk 'b' 1 and b2 = mk 'b' 2 in
  ignore (Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"sa" [ a1; a2 ]);
  ignore (Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"sb" [ b1; b2 ]);
  let wan =
    Padico.add_segment grid Simnet.Presets.vthd ~name:"wan" [ a1; a2; b1; b2 ]
  in
  let nodes = [ a1; a2; b1; b2 ] in
  let members =
    Group.create ~deadline_ns:(Engine.Time.sec 1) grid ~name:"dead" nodes
  in
  Simnet.Segment.set_down wan true;
  let failures = ref 0 in
  run_members grid nodes members (fun _ g ->
      match Group.barrier g with
      | () -> Alcotest.fail "barrier succeeded across a dead WAN"
      | exception Group.Failed _ -> incr failures);
  Tutil.check_int "every rank failed cleanly" 4 !failures;
  Tutil.check_bool "group poisoned" true (Group.poisoned members.(0) <> None);
  (* Subsequent operations refuse instead of hanging. *)
  let again = ref None in
  Group.ibarrier members.(0) (fun r -> again := Some r);
  match !again with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "poisoned group accepted a new operation"

(* ---------- failure: members disagree on the operation ---------- *)

(* Rank 0 broadcasts while ranks 1-3 enter a barrier. Ranks 1 and 2 get
   rank 0's bcast frame and fail on the mismatch; rank 3 waits on rank 2
   and fails on its deadline. A plain bcast root is done once its frames
   are handed off and drops the barrier frames that follow. A healing root
   also waits for the ack wave, so it gets the barrier frames and fails on
   the mismatch too. *)
let test_op_mismatch ?heal ~root_fails () =
  let grid, nodes = four_node_grid () in
  let members =
    Group.create ?heal ~deadline_ns:(Engine.Time.ms 400) grid ~name:"mismatch"
      nodes
  in
  let outcome = Array.make 4 (Error "unfinished") in
  let handles =
    List.mapi
      (fun r node ->
         Padico.spawn grid node ~name:(Printf.sprintf "rank%d" r) (fun () ->
             let g = members.(r) in
             outcome.(r) <-
               (match
                  if r = 0 then ignore (Group.bcast g ~root:0 (byte_buf 8 1))
                  else Group.barrier g
                with
                | () -> Ok ()
                | exception Group.Failed e -> Error e)))
      nodes
  in
  Tutil.run_grid grid ~until:(Engine.Time.ms 600);
  Array.iter Group.retire members;
  List.iter Tutil.assert_done handles;
  let failed_on r pattern =
    match outcome.(r) with
    | Ok () -> false
    | Error e -> (
      try
        ignore (Str.search_forward (Str.regexp_string pattern) e 0);
        true
      with Not_found -> false)
  in
  let disagree = "members disagree on the operation" in
  Tutil.check_bool "rank 0 (bcast root)" root_fails (failed_on 0 disagree);
  if not root_fails then
    Tutil.check_bool "plain root returns" true (outcome.(0) = Ok ());
  Tutil.check_bool "rank 1 disagrees" true (failed_on 1 disagree);
  Tutil.check_bool "rank 2 disagrees" true (failed_on 2 disagree);
  Tutil.check_bool "rank 3 hits its deadline" true
    (failed_on 3 "barrier exceeded its 400000000 ns deadline")

(* ---------- strategies agree ---------- *)

let test_strategies_agree () =
  let payload = Tutil.pattern_buf ~seed:7 4096 in
  let result_of strategy =
    let grid, nodes = four_node_grid () in
    let members = Group.create ~strategy grid ~name:"agree" nodes in
    let out = Array.make 4 None in
    run_members grid nodes members (fun r g ->
        let b = Group.bcast g ~root:2 payload in
        let s = Group.allreduce g ~op:Group.Bxor (byte_buf 32 (r * 3)) in
        out.(r) <- Some (Bb.checksum b, Bb.checksum s));
    Array.map Option.get out
  in
  let flat = result_of Group.Flat and ml = result_of Group.Multilevel in
  Array.iteri
    (fun r (bf, sf) ->
       let bm, sm = ml.(r) in
       Tutil.check_int (Printf.sprintf "bcast agrees at %d" r) bf bm;
       Tutil.check_int (Printf.sprintf "allreduce agrees at %d" r) sf sm)
    flat

(* ---------- reduction operators ---------- *)

(* Byte-wise reference fold, in rank order. *)
let reference_fold op bufs =
  let f x y =
    match op with
    | Group.Sum -> (x + y) land 0xff
    | Group.Max -> max x y
    | Group.Bxor -> x lxor y
  in
  match bufs with
  | [] -> ""
  | first :: rest ->
    String.init (String.length first) (fun i ->
        Char.chr
          (List.fold_left
             (fun acc s -> f acc (Char.code s.[i]))
             (Char.code first.[i]) rest))

let op_name = function
  | Group.Sum -> "sum"
  | Group.Max -> "max"
  | Group.Bxor -> "bxor"

(* Lengths 1..40 cover a tail shorter than a word, whole 64-bit words and
   both; random bytes make sums wrap past 255. *)
let prop_reduce_matches_fold =
  let open QCheck2 in
  let gen =
    Gen.(
      let* op = oneofl [ Group.Sum; Group.Max; Group.Bxor ] in
      let* strategy = oneofl [ Group.Flat; Group.Multilevel ] in
      let* root = int_range 0 3 in
      let* len = int_range 1 40 in
      let+ data = list_repeat 4 (string_size (return len)) in
      (op, strategy, root, data))
  in
  let print (op, strategy, root, data) =
    Printf.sprintf "op=%s %s root=%d data=[%s]" (op_name op)
      (match strategy with Group.Flat -> "flat" | Group.Multilevel -> "multilevel")
      root
      (String.concat "; " (List.map String.escaped data))
  in
  Test.make ~name:"reduce and allreduce equal the byte-wise fold" ~count:40
    ~print gen (fun (op, strategy, root, data) ->
      let want = reference_fold op data in
      let grid, nodes = four_node_grid () in
      let members = Group.create ~strategy grid ~name:"fold" nodes in
      let reds = Array.make 4 None and alls = Array.make 4 "" in
      run_members grid nodes members (fun r g ->
          let mine = List.nth data r in
          reds.(r) <-
            Option.map Bb.to_string
              (Group.reduce g ~root ~op (Bb.of_string mine));
          alls.(r) <-
            Bb.to_string (Group.allreduce g ~op (Bb.of_string mine)));
      reds.(root) = Some want
      && Array.for_all (fun s -> s = want) alls
      && Array.for_all Fun.id
           (Array.mapi (fun r res -> r = root || res = None) reds))

let () =
  Alcotest.run "collectives"
    [ ("netdb",
       [ Alcotest.test_case "two clusters" `Quick test_netdb_two_clusters;
         Alcotest.test_case "lan cluster" `Quick test_netdb_lan_cluster;
         Alcotest.test_case "same host + singleton" `Quick
           test_netdb_same_host_and_singleton ]);
      ("tree",
       [ Alcotest.test_case "binomial properties" `Quick test_tree_properties ]);
      ("ops",
       [ Alcotest.test_case "all ops, flat" `Quick test_ops_flat;
         Alcotest.test_case "all ops, multilevel" `Quick test_ops_multilevel;
         Alcotest.test_case "three clusters" `Quick
           test_three_cluster_allreduce;
         Alcotest.test_case "strategies agree" `Quick test_strategies_agree;
         QCheck_alcotest.to_alcotest prop_reduce_matches_fold ]);
      ("topology-aware",
       [ Alcotest.test_case "wan crossings" `Quick test_wan_counts;
         Alcotest.test_case "barrier round trip" `Quick
           test_barrier_wan_round_trip ]);
      ("faults",
       [ Alcotest.test_case "deadline, no hang" `Quick test_deadline_no_hang;
         Alcotest.test_case "operation mismatch, plain" `Quick
           (test_op_mismatch ~root_fails:false);
         Alcotest.test_case "operation mismatch, healing" `Quick
           (test_op_mismatch ~heal:Detect.default_config ~root_fails:true) ]);
    ]

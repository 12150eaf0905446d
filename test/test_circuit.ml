module Bb = Engine.Bytebuf
module Ct = Circuit.Ct

(* Build a circuit through the Padico facade and check the bound adapters
   and messaging semantics. *)

let collect_msgs ct inbox =
  Ct.set_recv ct (fun inc ->
      let tag = Ct.unpack_int inc in
      let payload = Ct.unpack inc (Ct.remaining inc) in
      inbox := (Ct.incoming_src inc, tag, payload) :: !inbox)

let send ct ~dst ~tag payload =
  let out = Ct.begin_packing ct ~dst in
  Ct.pack_int out tag;
  Ct.pack out payload;
  Ct.end_packing out

let test_pack_unpack_cursor () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let cts = Padico.circuit grid ~name:"c" [ a; b ] in
  let seen = ref None in
  Ct.set_recv cts.(1) (fun inc ->
      let x = Ct.unpack_int inc in
      let s = Ct.unpack inc 5 in
      let y = Ct.unpack_int inc in
      Tutil.check_int "nothing left" 0 (Ct.remaining inc);
      seen := Some (x, Bb.to_string s, y));
  let out = Ct.begin_packing cts.(0) ~dst:1 in
  Ct.pack_int out 123;
  Ct.pack out (Bb.of_string "hello");
  Ct.pack_int out (-7);
  Ct.end_packing out;
  Tutil.run_grid grid;
  match !seen with
  | Some (123, "hello", -7) -> ()
  | _ -> Alcotest.fail "cursor mismatch"

let test_madio_adapter_on_san () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let cts = Padico.circuit grid ~name:"san" [ a; b ] in
  Tutil.check_string "link uses madio" "madio"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  let inbox = ref [] in
  collect_msgs cts.(1) inbox;
  send cts.(0) ~dst:1 ~tag:9 (Tutil.pattern_buf ~seed:1 40_000);
  Tutil.run_grid grid;
  match !inbox with
  | [ (0, 9, payload) ] ->
    Tutil.check_int "payload size" 40_000 (Bb.length payload)
  | _ -> Alcotest.fail "expected one message"

let test_sysio_adapter_cross_paradigm () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.ethernet100 in
  let cts = Padico.circuit grid ~name:"lan" [ a; b ] in
  Tutil.check_string "link uses sysio" "sysio"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  let inbox = ref [] in
  collect_msgs cts.(1) inbox;
  (* Message boundaries must survive the TCP byte stream. *)
  let m1 = Tutil.pattern_buf ~seed:2 10_000 in
  let m2 = Tutil.pattern_buf ~seed:3 35 in
  send cts.(0) ~dst:1 ~tag:1 m1;
  send cts.(0) ~dst:1 ~tag:2 m2;
  Tutil.run_grid grid;
  match List.rev !inbox with
  | [ (0, 1, p1); (0, 2, p2) ] ->
    Tutil.check_bool "first intact" true (Bb.equal p1 m1);
    Tutil.check_bool "second intact" true (Bb.equal p2 m2)
  | l -> Alcotest.failf "expected 2 messages, got %d" (List.length l)

(* A Circuit message is a list of packed pieces; over SysIO it goes to TCP
   as one gather-write, so ten small pieces cost one WAN data segment (and
   its ACK), not one segment each. *)
let test_sysio_message_one_segment () =
  let prefs = { Selector.Prefs.default with cipher_untrusted = false } in
  let grid, a, b, seg = Tutil.grid_pair ~prefs Simnet.Presets.vthd in
  let cts = Padico.circuit grid ~name:"wan" [ a; b ] in
  Tutil.check_string "link uses sysio" "sysio"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  let got = ref [] in
  Ct.set_recv cts.(1) (fun inc ->
      got := Bb.to_string (Ct.unpack inc (Ct.remaining inc)) :: !got);
  let send_pieces () =
    let out = Ct.begin_packing cts.(0) ~dst:1 in
    for i = 0 to 4 do
      Ct.pack_int out i;
      Ct.pack out (Bb.of_string (String.make (i + 1) 'x'))
    done;
    Ct.end_packing out
  in
  (* The first message pays the connection set-up. *)
  send_pieces ();
  Tutil.run_grid grid;
  let frames0 = Simnet.Segment.frames_sent seg in
  send_pieces ();
  Tutil.run_grid grid;
  Tutil.check_int "one data segment and its ACK" 2
    (Simnet.Segment.frames_sent seg - frames0);
  match !got with
  | [ m2; m1 ] ->
    Tutil.check_int "size" ((5 * 8) + 15) (String.length m2);
    Tutil.check_string "same bytes" m1 m2
  | l -> Alcotest.failf "expected 2 messages, got %d" (List.length l)

let test_loopback_adapter_same_node () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  ignore (Padico.add_segment grid Simnet.Presets.ethernet100 [ a ]);
  let cts = Padico.circuit grid ~name:"self" [ a; a ] in
  Tutil.check_string "intra-node link" "loopback"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  let inbox = ref [] in
  collect_msgs cts.(1) inbox;
  send cts.(0) ~dst:1 ~tag:5 (Bb.of_string "local");
  Tutil.run_grid grid;
  match !inbox with
  | [ (0, 5, p) ] -> Tutil.check_string "payload" "local" (Bb.to_string p)
  | _ -> Alcotest.fail "expected one local message"

let test_pstream_vlink_adapter_on_wan () =
  let prefs =
    { Selector.Prefs.default with Selector.Prefs.pstream_on_wan = true;
      cipher_untrusted = false }
  in
  let grid, a, b, _ = Tutil.grid_pair ~prefs Simnet.Presets.vthd in
  let cts = Padico.circuit grid ~name:"wan" [ a; b ] in
  Tutil.check_string "wan link over vlink (pstream)" "vlink"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  let inbox = ref [] in
  collect_msgs cts.(1) inbox;
  let msg = Tutil.pattern_buf ~seed:4 500_000 in
  send cts.(0) ~dst:1 ~tag:3 msg;
  Tutil.run_grid grid;
  match !inbox with
  | [ (0, 3, p) ] -> Tutil.check_bool "big message intact" true (Bb.equal p msg)
  | _ -> Alcotest.fail "expected one message over the striped WAN link"

let test_mixed_adapters_one_circuit () =
  (* The paper: "a given instance of Circuit can use different adapters for
     different links": 2-cluster grid, SAN inside, WAN between. *)
  let grid, a1, a2, b1, _b2 =
    Tutil.two_clusters ~wan:Simnet.Presets.vthd ()
  in
  let cts = Padico.circuit grid ~name:"mixed" [ a1; a2; b1 ] in
  Tutil.check_string "intra-cluster is madio" "madio"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  Tutil.check_string "inter-cluster is sysio" "sysio"
    (Ct.link_adapter_name cts.(0) ~dst:2);
  let inbox1 = ref [] and inbox2 = ref [] in
  collect_msgs cts.(1) inbox1;
  collect_msgs cts.(2) inbox2;
  send cts.(0) ~dst:1 ~tag:1 (Bb.of_string "fast");
  send cts.(0) ~dst:2 ~tag:2 (Bb.of_string "far");
  Tutil.run_grid grid;
  Tutil.check_int "san got it" 1 (List.length !inbox1);
  Tutil.check_int "wan got it" 1 (List.length !inbox2)

let test_bidirectional_traffic () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let cts = Padico.circuit grid ~name:"bidir" [ a; b ] in
  let in0 = ref [] and in1 = ref [] in
  collect_msgs cts.(0) in0;
  collect_msgs cts.(1) in1;
  for i = 1 to 5 do
    send cts.(0) ~dst:1 ~tag:i (Bb.create 100);
    send cts.(1) ~dst:0 ~tag:(10 + i) (Bb.create 100)
  done;
  Tutil.run_grid grid;
  Tutil.check_int "rank1 got 5" 5 (List.length !in1);
  Tutil.check_int "rank0 got 5" 5 (List.length !in0);
  Tutil.check_int "sent counters" 5 (Ct.messages_sent cts.(0));
  Tutil.check_int "recv counters" 5 (Ct.messages_received cts.(0))

let test_ordering_per_link () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let cts = Padico.circuit grid ~name:"order" [ a; b ] in
  let tags = ref [] in
  Ct.set_recv cts.(1) (fun inc -> tags := Ct.unpack_int inc :: !tags);
  for i = 1 to 20 do
    send cts.(0) ~dst:1 ~tag:i (Bb.create 8)
  done;
  Tutil.run_grid grid;
  Alcotest.(check (list int)) "fifo per link" (List.init 20 (fun i -> i + 1))
    (List.rev !tags)

let test_unbound_link_buffers () =
  (* Messages sent before set_links must be delivered after binding. *)
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let group = [| a; b |] in
  let c0 = Ct.create ~group ~rank:0 ~name:"late" in
  let c1 = Ct.create ~group ~rank:1 ~name:"late" in
  let inbox = ref [] in
  collect_msgs c1 inbox;
  send c0 ~dst:1 ~tag:77 (Bb.of_string "early");
  (* Bind afterwards. *)
  let m0 = Padico.madio grid a (Option.get (Simnet.Net.best_link (Padico.net grid) a b)) in
  let m1 = Padico.madio grid b (Option.get (Simnet.Net.best_link (Padico.net grid) a b)) in
  let index = Circuit.Ct_madio.index group in
  Circuit.Ct_madio.bind c0 m0 ~index ~lchannel_id:900 ~ranks:[ 1 ];
  Circuit.Ct_madio.bind c1 m1 ~index ~lchannel_id:900 ~ranks:[ 0 ];
  Tutil.run_grid grid;
  match !inbox with
  | [ (0, 77, p) ] -> Tutil.check_string "buffered then sent" "early" (Bb.to_string p)
  | _ -> Alcotest.fail "expected the buffered message"

let test_errors () =
  let grid, a, b, _ = Tutil.grid_pair Simnet.Presets.myrinet2000 in
  let cts = Padico.circuit grid ~name:"err" [ a; b ] in
  Alcotest.check_raises "bad rank"
    (Invalid_argument "Ct.begin_packing: rank out of range") (fun () ->
      ignore (Ct.begin_packing cts.(0) ~dst:2));
  let out = Ct.begin_packing cts.(0) ~dst:1 in
  Ct.pack out (Bb.create 1);
  Ct.end_packing out;
  Alcotest.check_raises "double end"
    (Invalid_argument "Ct.end_packing: message already sent") (fun () ->
      Ct.end_packing out);
  (* A circuit created without binding adapters must say which link is
     unbound, not leak a bare Not_found. *)
  let bare = Ct.create ~group:[| a; b |] ~rank:0 ~name:"unbound" in
  Alcotest.check_raises "unbound link"
    (Invalid_argument
       "Ct.link_adapter_name: circuit unbound has no adapter bound for the \
        link from rank 0 to rank 1")
    (fun () -> ignore (Ct.link_adapter_name bare ~dst:1));
  Tutil.run_grid grid

(* The adapter every link gets, restated on [Net.links_between]: loopback
   within a node, MadIO on the first shared SAN (SysIO on the host
   backend), otherwise the fastest shared segment over SysIO — or a
   parallel-streams VLink when that segment is a WAN and the prefs ask
   for it. [None]: no common network. *)
let reference_adapter net ~host ~prefs a b =
  let open Simnet in
  let cls s = (Segment.model s).Linkmodel.class_ in
  if Node.uid a = Node.uid b then Some "loopback"
  else
    let links = Net.links_between net a b in
    if List.exists (fun s -> cls s = Linkmodel.San) links then
      Some (if host then "sysio" else "madio")
    else
      match links with
      | [] -> None
      | s :: _ when cls s = Linkmodel.Wan && prefs.Selector.Prefs.pstream_on_wan
        -> Some "vlink"
      | _ :: _ -> Some "sysio"

let seg_models =
  Simnet.Presets.
    [| myrinet2000; sci; ethernet100; gigabit_lan; vthd; transcontinental |]

(* Random topologies: several SANs per node, SCI (a SAN) beside a faster
   Gigabit LAN, LAN + WAN, lossy WANs, two ranks on one node, isolated
   pairs. Construction fails on an isolated pair, and when two ranks on
   one node would both open the circuit's MadIO channel on the same SAN.
   The host backend only binds listeners here (SysIO connects on first
   send), so its cases stay cheap; it skips pstream, whose connect runs at
   construction. *)
let prop_same_adapter_choice =
  QCheck.Test.make ~name:"per-segment binding picks the reference adapter"
    ~count:200 QCheck.(int_bound 1_000_000)
    (fun seed ->
       let rng = Random.State.make [| seed |] in
       let host = Random.State.int rng 8 = 0 in
       let prefs =
         { Selector.Prefs.default with
           Selector.Prefs.pstream_on_wan = (not host) && Random.State.bool rng }
       in
       let grid =
         Padico.create ~prefs
           ~backend:(if host then Padico.Host else Padico.Sim) ()
       in
       let nodes =
         Array.init (2 + Random.State.int rng 4) (fun i ->
             Padico.add_node grid (Printf.sprintf "n%d" i))
       in
       for k = 0 to Random.State.int rng 5 do
         let model =
           seg_models.(Random.State.int rng (Array.length seg_models))
         in
         match
           List.filter (fun _ -> Random.State.int rng 3 > 0)
             (Array.to_list nodes)
         with
         | [] -> ()
         | members ->
           ignore
             (Padico.add_segment grid model
                ~name:(Printf.sprintf "s%d" k) members)
       done;
       let g =
         Array.init (2 + Random.State.int rng 5) (fun _ ->
             nodes.(Random.State.int rng (Array.length nodes)))
       in
       let net = Padico.net grid in
       let expect i j = reference_adapter net ~host ~prefs g.(i) g.(j) in
       let ranks = List.init (Array.length g) Fun.id in
       let exists_pair f =
         List.exists (fun i -> List.exists (f i) ranks) ranks
       in
       let isolated = exists_pair (fun i j -> expect i j = None) in
       let shared_madio =
         exists_pair (fun i i' ->
             i <> i'
             && Simnet.Node.uid g.(i) = Simnet.Node.uid g.(i')
             && List.exists (fun j -> expect i j = Some "madio") ranks)
       in
       match Padico.circuit grid ~name:"prop" (Array.to_list g) with
       | exception Failure _ -> isolated
       | exception Invalid_argument _ -> shared_madio
       | cts ->
         (* the accepting end of a pstream link binds once connected *)
         if not host then Tutil.run_grid grid;
         (not isolated) && (not shared_madio)
         && not
              (exists_pair (fun i j ->
                   i <> j
                   && Some (Ct.link_adapter_name cts.(i) ~dst:j)
                      <> expect i j)))

(* A circuit keeps about one word per (member, peer) link: the adapters
   are shared per (member, segment) binding and per-link transport state
   only appears on first send. The nodes' transport stacks (MadIO,
   NetAccess, GM, TCP: some 900 words per node, shared by every circuit
   and VLink on the node) come up with the first circuit, so the pin
   measures a second one. *)
let test_retained_heap_per_link () =
  let g = Scenario.Gridgen.generate ~clusters:4 ~nodes_per_cluster:128 () in
  let grid = g.Scenario.Gridgen.grid and nodes = g.Scenario.Gridgen.nodes in
  let n = Scenario.Gridgen.size g in
  ignore (Padico.circuit grid ~name:"stacks" nodes);
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let cts = Padico.circuit grid ~name:"heap" nodes in
  Gc.compact ();
  let retained = (Gc.stat ()).Gc.live_words - before in
  Tutil.check_int "members" n (Array.length (Sys.opaque_identity cts));
  let pairs = n * (n - 1) in
  if retained > 2 * pairs then
    Alcotest.failf "circuit retains %d words for %d links (%.2f words/link)"
      retained pairs
      (float_of_int retained /. float_of_int pairs)

let () =
  Alcotest.run "circuit"
    [ ("api",
       [ Alcotest.test_case "pack/unpack cursor" `Quick test_pack_unpack_cursor;
         Alcotest.test_case "errors" `Quick test_errors;
         Alcotest.test_case "unbound buffering" `Quick
           test_unbound_link_buffers ]);
      ("adapters",
       [ Alcotest.test_case "madio on SAN" `Quick test_madio_adapter_on_san;
         Alcotest.test_case "sysio cross-paradigm" `Quick
           test_sysio_adapter_cross_paradigm;
         Alcotest.test_case "sysio message: one WAN segment" `Quick
           test_sysio_message_one_segment;
         Alcotest.test_case "loopback same node" `Quick
           test_loopback_adapter_same_node;
         Alcotest.test_case "pstream vlink on WAN" `Quick
           test_pstream_vlink_adapter_on_wan;
         Alcotest.test_case "mixed adapters" `Quick
           test_mixed_adapters_one_circuit;
         QCheck_alcotest.to_alcotest prop_same_adapter_choice ]);
      ("cost",
       [ Alcotest.test_case "retained heap per link" `Quick
           test_retained_heap_per_link ]);
      ("traffic",
       [ Alcotest.test_case "bidirectional" `Quick test_bidirectional_traffic;
         Alcotest.test_case "ordering" `Quick test_ordering_per_link ]);
    ]

(* grid_collectives: closed loop at grid scale. 8 Myrinet islands x 128
   ranks = 1024 ranks behind a (loss-free) VTHD WAN, one multilevel Group. Every rank
   repeats barrier, bcast 4 KB from a rotating root, allreduce 512 B Bxor
   and gather 64 B to a rotating root; an op is one rank's collective call.
   Results are checked against values computed here: the root's payload,
   the XOR of every contribution, every gathered contribution. *)

module Bb = Engine.Bytebuf
module Group = Collectives.Group
module Gridgen = Scenario.Gridgen

let ops = [| "barrier"; "bcast"; "allreduce"; "gather" |]
let bcast_len = 4096
let allreduce_len = 512
let gather_len = 64

(* The window is the first [window_rounds] rounds of every rank after
   the warm-up rounds. *)
let shape = function
  | Pb.Full -> (8, 128, 20)
  | Pb.Small -> (2, 8, 3)

let timeout_ns = Engine.Time.sec 30

(* The VTHD link model (bandwidth, latency, jitter) without its random
   frame loss. With the loss, each lost frame on a collective's critical
   path stalls the whole collective for TCP's 200 ms minimum retransmit
   timeout: about 1 % of ops, each event exactly one collective (1024
   samples), so p99 sits on the boundary between the stalled and the
   normal population and flips between ~100 ms and ~230 ms from seed to
   seed even over 100-round windows. The lossy WAN path is measured by
   edge_churn. *)
let wan = { Simnet.Presets.vthd with Simnet.Linkmodel.loss = 0.0 }

let contribution ~seed ~round ~rank len =
  Pb.pattern len ~seed:(Hashtbl.hash (seed, round, rank))

let setup (cfg : Pb.cfg) =
  let clusters, per, window_rounds = shape cfg.Pb.scale in
  let g = Gridgen.generate ~seed:cfg.Pb.seed ~wan ~clusters ~nodes_per_cluster:per () in
  let grid = g.Gridgen.grid in
  let h0 = Pb.cpu_ns () in
  let groups = Group.create grid ~name:"pb-grid" g.Gridgen.nodes in
  let create_s = float_of_int (Pb.cpu_ns () - h0) /. 1e9 in
  let n = Array.length groups in
  let nodes = Array.of_list g.Gridgen.nodes in
  (* Roots rotate over the islands in a seeded order; in each island the
     root is its Netdb leader, the rank that carries the island's WAN
     traffic anyway. *)
  let db = Group.netdb groups.(0) in
  let nc = Selector.Netdb.cluster_count db in
  let order = Array.init nc Fun.id in
  let r = Pb.rng ~seed:cfg.Pb.seed 1 in
  for i = nc - 1 downto 1 do
    let j = Engine.Rng.int r (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let gather_shift = 1 + Engine.Rng.int r (max 1 (nc - 1)) in
  let bcast_root k = Selector.Netdb.leader db order.(k mod nc) in
  let gather_root k = Selector.Netdb.leader db order.((k + gather_shift) mod nc) in
  let per_op = Array.init 4 (fun _ -> Pb.Samples.create ()) in
  let window_ops = window_rounds * 4 * n in
  (* Per-round expectations, filled by the callers: the root's broadcast
     payload and the running XOR of the allreduce contributions. *)
  let bcast_payload : (int, Bb.t) Hashtbl.t = Hashtbl.create 8 in
  let xor_acc : (int, Bytes.t) Hashtbl.t = Hashtbl.create 8 in
  let in_flight = Array.make n (-1) in
  let closed = ref false in
  let now () = Padico.now grid in
  (* Rounds [first, last) of one rank; [record] sees every finished op. *)
  let rank_loop ~first ~last ~record rank () =
    let gm = groups.(rank) in
    let round = ref first in
    while !round < last do
      let k = !round in
      for o = 0 to 3 do
        let opid = (((k * 4) + o) * n) + rank in
        let t0 = now () and w0 = Pb.cpu_ns () in
        in_flight.(rank) <- t0;
        let span = Pb.Span.start ~op:opid ("coll." ^ ops.(o)) t0 in
        let ok, bytes, sum =
          try
            match o with
            | 0 ->
              Group.barrier gm;
              (true, 0, 0)
            | 1 ->
              let root = bcast_root k in
              let buf =
                if rank = root then begin
                  let p = contribution ~seed:cfg.Pb.seed ~round:k ~rank bcast_len in
                  Hashtbl.replace bcast_payload k p;
                  p
                end
                else Bb.create 0
              in
              let res = Group.bcast gm ~root buf in
              let ok =
                match Hashtbl.find_opt bcast_payload k with
                | Some p -> Bb.equal p res
                | None -> false
              in
              (ok, Bb.length res, Bb.checksum res)
            | 2 ->
              let c = contribution ~seed:cfg.Pb.seed ~round:k ~rank allreduce_len in
              let acc =
                match Hashtbl.find_opt xor_acc k with
                | Some a -> a
                | None ->
                  let a = Bytes.make allreduce_len '\000' in
                  Hashtbl.replace xor_acc k a;
                  a
              in
              for i = 0 to allreduce_len - 1 do
                Bytes.set_uint8 acc i (Bytes.get_uint8 acc i lxor Bb.get_u8 c i)
              done;
              let res = Group.allreduce gm ~op:Group.Bxor c in
              let ok = Bb.equal res (Bb.of_bytes acc) in
              (ok, Bb.length res, Bb.checksum res)
            | _ ->
              let root = gather_root k in
              let c = contribution ~seed:cfg.Pb.seed ~round:(k + 1_000_000) ~rank gather_len in
              (match Group.gather gm ~root c with
               | None -> (rank <> root, gather_len, 0)
               | Some parts ->
                 let ok = ref (rank = root && Array.length parts = n) in
                 let sum = ref 0 in
                 Array.iteri
                   (fun j p ->
                      sum := Pb.mix !sum (Bb.checksum p);
                      if not
                          (Bb.equal p
                             (contribution ~seed:cfg.Pb.seed
                                ~round:(k + 1_000_000) ~rank:j gather_len))
                      then ok := false)
                   parts;
                 (!ok, gather_len, !sum))
          with Group.Failed _ -> (false, 0, 0)
        in
        let t1 = now () in
        Pb.Span.finish span t1;
        in_flight.(rank) <- -1;
        record ~round:k ~op:o ~ok ~t0 ~t1 ~w0 ~bytes ~sum
      done;
      (* Every rank has contributed to round [k] once this rank is past
         it; expectations of old rounds can go. *)
      if rank = 0 && k >= 2 then begin
        Hashtbl.remove bcast_payload (k - 2);
        Hashtbl.remove xor_acc (k - 2)
      end;
      incr round
    done
  in
  let spawn_ranks ~first ~last ~record =
    Array.iteri
      (fun rank node ->
         Pb.spawn grid node (Printf.sprintf "rank-%d" rank)
           (rank_loop ~first ~last ~record rank))
      nodes
  in
  (* Warm-up rounds, part of the set-up: one per island, so every root
     has been used once. The circuit opens its WAN TCP connections lazily,
     on first use; the set-up pays for that, not the timed window. *)
  let warm_failed = ref 0 and warm_done = ref 0 in
  spawn_ranks ~first:0 ~last:nc ~record:(fun ~round:_ ~op:_ ~ok ~t0:_ ~t1:_ ~w0:_ ~bytes:_ ~sum:_ ->
      incr warm_done;
      if not ok then incr warm_failed);
  if
    (not
       (Pb.run_until grid ~slice_ns:(Engine.Time.ms 20) ~limit_ns:(Engine.Time.sec 300)
          (fun () -> !warm_done = 4 * n * nc)))
    || !warm_failed > 0
  then failwith "grid_collectives: warm-up round failed";
  let start (rec_ : Pb.recorder) ~on_window =
    spawn_ranks ~first:nc ~last:max_int
      ~record:(fun ~round ~op ~ok ~t0 ~t1 ~w0 ~bytes ~sum ->
          let in_window = round < nc + window_rounds in
          Pb.complete rec_ ~in_window ~lat:true ~ok ~virt_ns:(t1 - t0)
            ~w0 ~bytes ~sum;
          if in_window then begin
            Pb.Samples.add per_op.(op) (t1 - t0);
            if rec_.Pb.window_done = window_ops then begin
              closed := true;
              rec_.Pb.window_end <- t1;
              on_window ()
            end
          end)
  in
  let stuck ~quiesced =
    let now = Padico.now grid in
    Array.fold_left
      (fun a t0 -> if t0 >= 0 && (quiesced || now - t0 > timeout_ns) then a + 1 else a)
      0 in_flight
  in
  let layer_metrics () =
    List.concat
      (List.mapi
         (fun o name ->
            let s = per_op.(o) in
            let c = Pb.Samples.count s in
            [ Pb.metric ~samples:c (Printf.sprintf "collectives.%s.virt_us.p50" name) "us"
                (Pb.Samples.us_at s 50.0);
              Pb.metric ~samples:c (Printf.sprintf "collectives.%s.virt_us.p99" name) "us"
                (Pb.Samples.us_at s 99.0) ])
         (Array.to_list ops))
  in
  { Pb.ctx = Layers.ctx ~group:groups.(0) grid g.Gridgen.nodes;
    virt_on_host = false;
    parts = [ Pb.metric ~samples:1 "collectives.create_s" "s" create_s ];
    start;
    slice_ns = Engine.Time.ms 20;
    window_complete = (fun () -> !closed);
    finished = (fun () -> false);
    stuck;
    layer_metrics;
    teardown = (fun () -> ()) }

(* E14: failure detection and self-healing collectives at grid scale.

   The E13 grid (8 Myrinet islands x 128 nodes, one VTHD WAN backbone,
   1024 ranks) runs a multilevel allreduce as a healing group while a
   member crashes with the operation in flight. Two victims are
   exercised: a leaf rank (cluster-local recovery) and a cluster proxy
   (the WAN-facing representative — its death forces a proxy re-election
   on top of the eviction). In both cases every survivor must deliver the
   exact reduction over the surviving contributions.

   Reported per victim kind:
   - recovery time: crash -> first post-eviction completed collective
     (the in-flight allreduce that stalls on the dead rank, heals, and
     retries over the shrunken group);
   - WAN crossings of a full-group allreduce before the crash vs a
     steady-state allreduce after the eviction — the recovery's lasting
     price (or saving: one fewer cluster member) on the scarce resource.

   Sim numbers are virtual-time and deterministic, recorded under e14.*.
   Under --backend host the same scenario runs on a small grid over real
   Unix sockets: the crash kills the victim's sockets (peers see RST,
   which short-circuits phi accrual), and wall-clock metrics land under
   e14_host.*. *)

module Bb = Engine.Bytebuf
module Time = Engine.Time
module Proc = Engine.Proc
module Node = Simnet.Node
module Group = Collectives.Group
module Netdb = Selector.Netdb
module Gridgen = Scenario.Gridgen
module Plan = Padico_fault.Plan
module Inject = Padico_fault.Inject

let payload = 4096

let pattern n seed =
  let b = Bb.create n in
  Bb.fill_pattern b ~seed;
  b

(* Reference result: xor-fold of the surviving ranks' contributions —
   what the healing retry must recompute once the victim is evicted. *)
let expected_xor ~n ~victim =
  let acc = Bb.create payload in
  for r = 0 to n - 1 do
    if r <> victim then begin
      let c = pattern payload (r + 1) in
      for i = 0 to payload - 1 do
        Bb.set_u8 acc i (Bb.get_u8 acc i lxor Bb.get_u8 c i)
      done
    end
  done;
  Bb.to_string acc

type outcome = {
  recovery_ns : int;
  wan_msgs_before : int;
  wan_bytes_before : int;
  wan_msgs_after : int;
  wan_bytes_after : int;
}

(* One crash scenario on an already-generated grid. Timeline (sim ns or
   host wall ns after start):
     0        all ranks join a warm-up allreduce (full group, measured
              as the pre-crash WAN cost)
     crash_at victim node dies (host: its sockets RST)
     ops_at   survivors post the measured allreduce — the detector has
              not confirmed yet, so the operation genuinely stalls on
              the dead member, then eviction rewinds and completes it
     ...      one more allreduce in the epoch-1 steady state (the
              post-eviction WAN cost), then retire *)
let scenario g ~label ~victim ~heal ~crash_at ~deadline_ns ~until =
  let grid = g.Gridgen.grid in
  let nodes = Array.of_list g.Gridgen.nodes in
  let n = Array.length nodes in
  let groups =
    Group.create ~strategy:Group.Multilevel ~deadline_ns ~heal grid
      ~name:("e14-" ^ label) g.Gridgen.nodes
  in
  let ops_at = crash_at + Time.ms 1 in
  let want = expected_xor ~n ~victim in
  let gm0 = groups.(0) in
  let recovery_ns = ref 0 in
  let wan_after = ref (0, 0) in
  ignore
    (Inject.apply (Padico.net grid)
       [ { Plan.at_ns = crash_at;
           action = Plan.Node_crash (Node.name nodes.(victim)) } ]);
  let hs =
    Array.mapi
      (fun r node ->
         Padico.spawn grid node ~name:(Printf.sprintf "e14-%s-%d" label r)
           (fun () ->
              let gm = groups.(r) in
              (try
                 ignore
                   (Group.allreduce gm ~op:Group.Bxor
                      (pattern payload (r + 1)))
               with Group.Failed _ when r = victim -> ());
              if r = 0 && Padico.now grid >= crash_at then
                failwith
                  (Printf.sprintf
                     "e14-%s: warm-up ran past the crash time (%d ns) — \
                      raise crash_at"
                     label (Padico.now grid));
              if r <> victim then begin
                let now = Padico.now grid in
                if now < ops_at then
                  Proc.sleep_on (Node.clock node) (ops_at - now);
                let res =
                  Group.allreduce gm ~op:Group.Bxor (pattern payload (r + 1))
                in
                if Bb.to_string res <> want then
                  failwith
                    (Printf.sprintf
                       "e14-%s: rank %d allreduce diverged from the \
                        surviving-ranks reduction (epoch %d, dead [%s])"
                       label r (Group.epoch gm)
                       (String.concat ";"
                          (List.map string_of_int (Group.dead_ranks gm))));
                if r = 0 then recovery_ns := Padico.now grid - crash_at;
                (* One settling round first: the healed operation's retry
                   tail (late acks, re-serves) must drain before the
                   steady-state WAN cost is snapshotted, or it pollutes
                   the "after" window. *)
                ignore
                  (Group.allreduce gm ~op:Group.Bxor (pattern payload (r + 1)));
                let m1 = Group.wan_messages gm0
                and b1 = Group.wan_bytes gm0 in
                ignore
                  (Group.allreduce gm ~op:Group.Bxor (pattern payload (r + 1)));
                if r = 0 then
                  wan_after :=
                    (Group.wan_messages gm0 - m1, Group.wan_bytes gm0 - b1)
              end))
      nodes
  in
  (* The warm-up's WAN cost, read between two runs, when every shard
     stands at one clock just before the measured allreduce is posted:
     the warm-up's cross-cluster tail has drained and no eviction traffic
     exists yet (detection needs several intervals of silence), so the
     delta is exactly one full-group allreduce. Read inside rank 0's
     process at [ops_at], the group-wide counters would already hold the
     measured allreduce's first WAN frame from an island whose shard ran
     up to one WAN latency ahead. *)
  let m0 = Group.wan_messages gm0 and b0 = Group.wan_bytes gm0 in
  Padico.run grid ~until:(ops_at - 1);
  let mb = Group.wan_messages gm0 - m0 and bb = Group.wan_bytes gm0 - b0 in
  Padico.run grid ~until;
  Array.iter Group.retire groups;
  Array.iteri
    (fun r h ->
       if r <> victim then
         match Proc.result h with
         | Some (Ok ()) -> ()
         | Some (Error e) ->
           Printf.eprintf "e14-%s: rank %d raised %s\n" label r
             (Printexc.to_string e);
           exit 1
         | None ->
           Printf.eprintf "e14-%s: rank %d never finished (hang)\n" label r;
           exit 1)
    hs;
  if Group.epoch gm0 <> 1 || Group.dead_ranks gm0 <> [ victim ] then begin
    Printf.eprintf "e14-%s: rank 0 membership wrong (epoch %d)\n" label
      (Group.epoch gm0);
    exit 1
  end;
  let ma, ba = !wan_after in
  { recovery_ns = !recovery_ns; wan_msgs_before = mb; wan_bytes_before = bb;
    wan_msgs_after = ma; wan_bytes_after = ba }

let report ~experiment ~case o =
  let rec_ k v = Bhelp.record ~experiment (case ^ "." ^ k) v in
  Printf.printf
    "%-18s recovery %8.2f ms   wan before %6d msgs %9d B   after %6d msgs \
     %9d B\n"
    case
    (float_of_int o.recovery_ns /. 1e6)
    o.wan_msgs_before o.wan_bytes_before o.wan_msgs_after o.wan_bytes_after;
  rec_ "recovery_ms" (float_of_int o.recovery_ns /. 1e6);
  rec_ "wan_msgs_before" (float_of_int o.wan_msgs_before);
  rec_ "wan_bytes_before" (float_of_int o.wan_bytes_before);
  rec_ "wan_msgs_after" (float_of_int o.wan_msgs_after);
  rec_ "wan_bytes_after" (float_of_int o.wan_bytes_after)

let run_sim () =
  let clusters = 8 and per_cluster = 128 in
  Bhelp.print_header
    (Printf.sprintf
       "E14: self-healing collectives under member crash (%d clusters x %d \
        nodes = %d ranks)"
       clusters per_cluster (clusters * per_cluster));
  (* A 1 ms heartbeat at 1024 ranks is ~4.5 M frames per simulated
     second of pure monitoring — affordable on a real grid, not in a
     discrete-event run of it. A 10 ms tick keeps the event count sane;
     every suspicion horizon stretches by the same factor, so the
     detector's shape (and the recovery story) is unchanged, just
     slower. *)
  let heal = { Detect.default_config with Detect.interval_ns = Time.ms 10 } in
  let go ~case ~victim_of =
    let g =
      Gridgen.generate ~clusters ~nodes_per_cluster:per_cluster ()
    in
    let victim = victim_of g in
    let o =
      scenario g ~label:case ~victim ~heal ~crash_at:(Time.ms 200)
        ~deadline_ns:(Time.sec 2) ~until:(Time.sec 3)
    in
    report ~experiment:"e14" ~case o
  in
  (* Leaf: a mid-island rank — recovery is cluster-local plus the epoch
     flood. Proxy: cluster 1's WAN representative — the eviction also
     re-elects the island's proxy. *)
  go ~case:"leaf" ~victim_of:(fun _ -> per_cluster + 1);
  go ~case:"proxy" ~victim_of:(fun g ->
      (* Netdb's convention: the proxy is the cluster's smallest rank.
         Read it from the topology database instead of hard-coding. *)
      let db =
        Netdb.build
          (Padico.net g.Gridgen.grid)
          (Array.of_list g.Gridgen.nodes)
      in
      Netdb.leader db (Netdb.cluster_of db per_cluster))

let run_host () =
  let clusters = 2 and per_cluster = 2 in
  Bhelp.print_header
    (Printf.sprintf
       "E14: self-healing collectives under a real-socket kill (host \
        backend, %d x %d ranks, wall-clock)"
       clusters per_cluster);
  let g =
    Gridgen.generate ~backend:Padico.Host ~clusters
      ~nodes_per_cluster:per_cluster ()
  in
  (* Wall-clock timings are loose: the warm-up includes real connect(2)
     handshakes, so the crash lands late enough to be safely past it.
     The heartbeat tick is coarse (25 ms wall): on a real scheduler a
     millisecond horizon false-confirms on any epoll or GC hiccup, and
     the kill is detected through the socket RST short-circuit anyway —
     phi accrual is only the fallback here. *)
  let heal =
    { Detect.default_config with Detect.interval_ns = Time.ms 25 }
  in
  let o =
    scenario g ~label:"host-leaf" ~victim:3 ~heal ~crash_at:(Time.ms 400)
      ~deadline_ns:(Time.sec 1) ~until:(Time.sec 3)
  in
  report ~experiment:"e14_host" ~case:"leaf" o

let run () =
  if !Bhelp.backend = Padico.Host then run_host () else run_sim ()

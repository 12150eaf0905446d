(* Fault — E10: fault injection and failover resilience.

   Two measurements:
   1. loss-burst degradation: one-way Vio latency over the VTHD WAN, clean
      versus with an injected loss burst covering the measured window — the
      cost of riding TCP retransmissions through a lossy episode;
   2. failover: a resilient echo transfer on a Myrinet-SAN + Fast-Ethernet
      pair with the SAN killed mid-transfer. Reported: adapter switches,
      reconnect attempts, virtual downtime, and goodput versus the clean
      run and versus a LAN-only baseline (the floor once failed over).
      The failover runs again with the two nodes on shards of their own,
      at 1 and 2 domains, and must read the one-shard figures exactly.

   All numbers are virtual-time; same seed and plan replay identically.
   Numbers are recorded in EXPERIMENTS.md (experiment E10). *)

module Bb = Engine.Bytebuf
module Vl = Vlink.Vl
module Time = Engine.Time
module Plan = Padico_fault.Plan
module Inject = Padico_fault.Inject

let lat_iters = 100

let wan_latency ~loss_burst () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore (Padico.add_segment grid Simnet.Presets.vthd ~name:"wan" [ a; b ]);
  if loss_burst then
    ignore
      (Inject.apply (Padico.net grid)
         [ { Plan.at_ns = Time.ms 1;
             action =
               Plan.Loss_burst
                 { link = "wan"; loss = 0.02; duration_ns = Time.sec 30 } } ]);
  Bhelp.vio_latency grid ~src:a ~dst:b ~port:4000 ~size:4 ~iters:lat_iters

let san_lan_pair ~shards =
  let grid = Padico.create ~shards () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node ~shard:(shards - 1) grid "b" in
  ignore
    (Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san" [ a; b ]);
  ignore
    (Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ]);
  (grid, a, b)

let total = 8_000_000

let chunk = 65_536

(* Resilient round-trip echo of [total] bytes under [plan]; returns
   (goodput MB/s counting both directions, failover stats). *)
let resilient_echo ?(shards = 1) ?domains ~plan () =
  let grid, a, b = san_lan_pair ~shards in
  (match plan with
   | [] -> ()
   | plan -> ignore (Inject.apply (Padico.net grid) plan));
  Resilient.listen grid b ~port:9000 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"echo" (fun () ->
             let buf = Bb.create chunk in
             let rec loop () =
               match Vl.await (Vl.post_read vl buf) with
               | Vl.Done n ->
                 (match Vl.await (Vl.post_write vl (Bb.sub buf 0 n)) with
                  | Vl.Done _ -> loop ()
                  | _ -> ())
               | _ -> ()
             in
             loop ())));
  let conn = Resilient.connect grid ~src:a ~dst:b ~port:9000 in
  let cvl = Resilient.vl conn in
  let t0 = ref 0 and t1 = ref 0 in
  let received = ref 0 in
  let h =
    Padico.spawn grid a ~name:"client" (fun () ->
        (match Vl.await_connected cvl with
         | Ok () -> ()
         | Error m -> failwith ("connect: " ^ m));
        t0 := Padico.now grid;
        let sent = ref 0 in
        while !sent < total do
          let n = min chunk (total - !sent) in
          ignore (Vl.post_write cvl (Bb.create n));
          sent := !sent + n
        done;
        let buf = Bb.create chunk in
        let rec rd () =
          if !received < total then
            match Vl.await (Vl.post_read cvl buf) with
            | Vl.Done n ->
              received := !received + n;
              rd ()
            | Vl.Eof | Vl.Again -> ()
            | Vl.Error m -> failwith ("read: " ^ m)
        in
        rd ();
        t1 := Padico.now grid)
  in
  Padico.run grid ~until:(Time.sec 3600) ?domains;
  Bhelp.fail_on_error h;
  if !received < total then
    failwith (Printf.sprintf "incomplete: %d/%d bytes" !received total);
  (Bhelp.mb_s (2 * total) (!t1 - !t0), Resilient.stats conn)

(* The post-failover floor: the same transfer with only the LAN. *)
let lan_only_goodput () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore
    (Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ]);
  let bw =
    Bhelp.vio_stream_bw grid ~src:a ~dst:b ~port:5000 ~total ~chunk
  in
  bw

let run () =
  Bhelp.print_header "E10 — fault injection and failover resilience";
  let rec_ = Bhelp.record ~experiment:"e10" in

  let clean_lat = wan_latency ~loss_burst:false () in
  let burst_lat = wan_latency ~loss_burst:true () in
  Printf.printf "%-42s %10.2f us\n" "vio/VTHD latency, clean" clean_lat;
  Printf.printf "%-42s %10.2f us   (x%.2f)\n"
    "vio/VTHD latency, 2% loss burst" burst_lat (burst_lat /. clean_lat);
  rec_ "wan_latency_clean_us" clean_lat;
  rec_ "wan_latency_lossburst_us" burst_lat;

  let clean_bw, clean_st = resilient_echo ~plan:[] () in
  Printf.printf "%-42s %10.2f MB/s  (driver %s)\n"
    "resilient echo 8 MB, no faults" clean_bw clean_st.Resilient.driver;
  rec_ "clean_goodput_mb_s" clean_bw;

  let failover_plan =
    [ { Plan.at_ns = Time.ms 5; action = Plan.Link_down "san" } ]
  in
  let fo_bw, fo_st = resilient_echo ~plan:failover_plan () in
  Printf.printf "%-42s %10.2f MB/s  (driver %s)\n"
    "resilient echo 8 MB, SAN down at 5 ms" fo_bw fo_st.Resilient.driver;
  Printf.printf "%-42s %10d\n" "  adapter switches" fo_st.Resilient.switches;
  Printf.printf "%-42s %10d\n" "  reconnect attempts" fo_st.Resilient.retries;
  Printf.printf "%-42s %10.3f ms\n" "  downtime (virtual)"
    (float_of_int fo_st.Resilient.downtime_ns /. 1e6);
  rec_ "failover_goodput_mb_s" fo_bw;
  rec_ "failover_switches" (float_of_int fo_st.Resilient.switches);
  rec_ "failover_retries" (float_of_int fo_st.Resilient.retries);
  rec_ "failover_downtime_ms"
    (float_of_int fo_st.Resilient.downtime_ns /. 1e6);

  (* The SAN's link-down fires once per shard it spans; each shard's
     senders see it at the same instant, so the figures must not move. *)
  List.iter
    (fun domains ->
       let bw, st =
         resilient_echo ~shards:2 ~domains ~plan:failover_plan ()
       in
       Printf.printf "%-42s %10.2f MB/s  (%d switch, %d retry, %.3f ms)\n"
         (Printf.sprintf "  same on 2 shards, %d domain(s)" domains)
         bw st.Resilient.switches st.Resilient.retries
         (float_of_int st.Resilient.downtime_ns /. 1e6);
       if bw <> fo_bw || st <> fo_st then begin
         Printf.eprintf
           "E10: failover on 2 shards (%d domains) differs from 1 shard\n%!"
           domains;
         exit 1
       end)
    [ 1; 2 ];

  let lan_bw = lan_only_goodput () in
  Printf.printf "%-42s %10.2f MB/s  (one-way floor)\n"
    "LAN-only baseline (Fast Ethernet)" lan_bw;
  rec_ "lan_only_bw_mb_s" lan_bw;

  if fo_st.Resilient.switches < 1 then
    print_endline "WARNING: no failover happened — check the plan!"

(* Experiment E12 — scheduling & aggregation:

   (a) small-message throughput, aggregation off vs on (the headline:
       >= 2x messages/s for 64 B bursts at equal goodput);
   (b) the latency/throughput Pareto front as the coalescing budget
       sweeps from 0 (off) to 50 us — burst rate and the worst-case
       latency a lone message pays waiting out the budget;
   (c) arbitration beside a quiet socket: a MadIO ping-pong next to one
       watched-but-silent SysIO socket. The idle connection is never on
       the dispatcher's ready list, so it costs the ping-pong nothing. *)

module Bb = Engine.Bytebuf
module Madio = Netaccess.Madio
module Sysio = Netaccess.Sysio

let pattern ~seed n =
  let b = Bb.create n in
  Bb.fill_pattern b ~seed;
  b

let madio_grid () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  let seg = Padico.add_segment grid Simnet.Presets.myrinet2000 [ a; b ] in
  (grid, a, b, seg)

let msg_size = 64

let burst_count = 2_000

(* One-way burst: virtual ns from first send to last delivery, payload
   checksum (goodput witness), Madeleine packets saved by coalescing. *)
let burst ?budget_ns ~agg () =
  let grid, a, b, seg = madio_grid () in
  let ma = Padico.madio grid a seg and mb = Padico.madio grid b seg in
  if agg then begin
    Madio.set_aggregation ma ?budget_ns true;
    Madio.set_aggregation mb true
  end;
  let la = Madio.open_lchannel ma ~id:1 in
  let lb = Madio.open_lchannel mb ~id:1 in
  let got = ref 0 and sum = ref 0 in
  let t0 = ref 0 and t1 = ref 0 in
  Madio.set_recv lb (fun ~src:_ buf ->
      incr got;
      sum := !sum + Bb.checksum buf;
      if !got = burst_count then t1 := Padico.now grid);
  ignore
    (Padico.spawn grid a ~name:"burst-src" (fun () ->
         t0 := Padico.now grid;
         for i = 1 to burst_count do
           Madio.send la ~dst:(Simnet.Node.id b) (pattern ~seed:i msg_size)
         done));
  Bhelp.run grid;
  if !got < burst_count then failwith "e12: burst incomplete";
  (!t1 - !t0, !sum, Madio.packets_saved ma)

let rate_msg_s ns = float_of_int burst_count /. (float_of_int ns *. 1e-9)

(* Worst-case small-message latency under a coalescing budget: a lone
   message with no batch-mates waits out the whole budget. *)
let lone_latency ?budget_ns ~agg () =
  let grid, a, b, seg = madio_grid () in
  let ma = Padico.madio grid a seg and mb = Padico.madio grid b seg in
  if agg then begin
    Madio.set_aggregation ma ?budget_ns true;
    Madio.set_aggregation mb true
  end;
  let la = Madio.open_lchannel ma ~id:1 in
  let lb = Madio.open_lchannel mb ~id:1 in
  let t0 = ref 0 and t1 = ref (-1) in
  Madio.set_recv lb (fun ~src:_ _ -> t1 := Padico.now grid);
  ignore
    (Padico.spawn grid a ~name:"lone-src" (fun () ->
         t0 := Padico.now grid;
         Madio.send la ~dst:(Simnet.Node.id b) (pattern ~seed:1 msg_size)));
  Bhelp.run grid;
  if !t1 < 0 then failwith "e12: lone message lost";
  !t1 - !t0

(* Part (c): 300 MadIO ping-pongs on the SAN while one idle TCP
   connection sits watched on the LAN. Returns the ping-pong completion
   time. *)
let pingpong_iters = 300

let pingpong_beside_socket () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  let san =
    Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san" [ a; b ]
  in
  let lan =
    Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ]
  in
  let sa = Sysio.get a and sb = Sysio.get b in
  let stack_a = Sysio.stack_on sa lan and stack_b = Sysio.stack_on sb lan in
  Sysio.listen sb stack_b ~port:80 (fun conn ->
      Sysio.watch sb conn (fun _ -> ()));
  ignore
    (Sysio.connect sa stack_a ~dst:(Simnet.Node.id b) ~port:80 (fun _ _ -> ()));
  let ma = Padico.madio grid a san and mb = Padico.madio grid b san in
  let la = Madio.open_lchannel ma ~id:1 in
  let lb = Madio.open_lchannel mb ~id:1 in
  let rounds = ref 0 in
  let t1 = ref 0 in
  Madio.set_recv lb (fun ~src buf -> Madio.send lb ~dst:src buf);
  Madio.set_recv la (fun ~src:_ _ ->
      incr rounds;
      if !rounds < pingpong_iters then
        Madio.send la ~dst:(Simnet.Node.id b)
          (pattern ~seed:!rounds msg_size)
      else t1 := Padico.now grid);
  Madio.send la ~dst:(Simnet.Node.id b) (pattern ~seed:0 msg_size);
  Bhelp.run grid;
  if !rounds < pingpong_iters then failwith "e12: ping-pong incomplete";
  !t1

let run () =
  let rec_ = Bhelp.record ~experiment:"e12" in
  Bhelp.print_header
    "E12 - scheduling & aggregation (64 B messages, Myrinet)";
  (* (a) headline throughput *)
  let t_off, sum_off, _ = burst ~agg:false () in
  let t_on, sum_on, saved = burst ~agg:true () in
  if sum_off <> sum_on then failwith "e12: goodput mismatch";
  let r_off = rate_msg_s t_off and r_on = rate_msg_s t_on in
  let speedup = r_on /. r_off in
  Printf.printf
    "(a) %d x %d B burst: %.2f Mmsg/s off -> %.2f Mmsg/s on (%.1fx, %d packets saved)\n"
    burst_count msg_size (r_off /. 1e6) (r_on /. 1e6) speedup saved;
  flush stdout;
  rec_ "rate_agg_off_msg_s" r_off;
  rec_ "rate_agg_on_msg_s" r_on;
  rec_ "agg_speedup" speedup;
  rec_ "agg_packets_saved" (float_of_int saved);
  (* (b) Pareto sweep over the coalescing budget *)
  print_endline
    "(b) latency/throughput Pareto (budget ; burst rate ; lone-message latency):";
  let lat_off = lone_latency ~agg:false () in
  Printf.printf "    %-10s %8.2f Mmsg/s   %6d ns\n" "off"
    (rate_msg_s t_off /. 1e6) lat_off;
  rec_ "lone_latency_off_ns" (float_of_int lat_off);
  List.iter
    (fun budget_ns ->
       let t, _, _ = burst ~budget_ns ~agg:true () in
       let lat = lone_latency ~budget_ns ~agg:true () in
       Printf.printf "    %-10s %8.2f Mmsg/s   %6d ns\n"
         (Printf.sprintf "%d ns" budget_ns)
         (rate_msg_s t /. 1e6) lat;
       flush stdout;
       rec_ (Printf.sprintf "agg_rate_b%d_msg_s" budget_ns) (rate_msg_s t);
       rec_
         (Printf.sprintf "agg_lone_latency_b%d_ns" budget_ns)
         (float_of_int lat))
    [ 1_000; 5_000; 20_000; 50_000 ];
  (* (c) ping-pong beside a watched-but-silent socket *)
  let pp_t = pingpong_beside_socket () in
  Printf.printf
    "(c) %d ping-pongs beside a silent watched socket: %d ns total\n"
    pingpong_iters pp_t;
  rec_ "pingpong_static_ns" (float_of_int pp_t);
  print_endline
    "expected shape: (a) >= 2x; (b) rate flat past ~5 us budget, lone latency";
  print_endline "grows with the budget."

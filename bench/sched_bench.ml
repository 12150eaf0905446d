(* Experiment E12 — scheduling & small-message coalescing:

   (a) small-message throughput: a 64 B burst coalesces behind the flow's
       in-flight packet (asserted: >= 1900 of 2000 packets saved);
   (b) a lone message pays no coalescing delay (asserted: no slower than
       the uncoalesced send path);
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

(* One-way burst: virtual ns from first send to last delivery, and
   Madeleine packets saved by coalescing. Every message must arrive
   intact and in order. *)
let burst () =
  let grid, a, b, seg = madio_grid () in
  let ma = Padico.madio grid a seg and mb = Padico.madio grid b seg in
  let la = Madio.open_lchannel ma ~id:1 in
  let lb = Madio.open_lchannel mb ~id:1 in
  let got = ref 0 in
  let t0 = ref 0 and t1 = ref 0 in
  Madio.set_recv lb (fun ~src:_ buf ->
      incr got;
      if not (Bb.equal buf (pattern ~seed:!got msg_size)) then
        failwith "e12: burst message corrupted or reordered";
      if !got = burst_count then t1 := Padico.now grid);
  ignore
    (Padico.spawn grid a ~name:"burst-src" (fun () ->
         t0 := Padico.now grid;
         for i = 1 to burst_count do
           Madio.send la ~dst:(Simnet.Node.id b) (pattern ~seed:i msg_size)
         done));
  Bhelp.run grid;
  if !got < burst_count then failwith "e12: burst incomplete";
  (!t1 - !t0, Madio.packets_saved ma)

let rate_msg_s ns = float_of_int burst_count /. (float_of_int ns *. 1e-9)

(* Delivery time of one 64 B message on an idle flow. *)
let lone_latency () =
  let grid, a, b, seg = madio_grid () in
  let ma = Padico.madio grid a seg and mb = Padico.madio grid b seg in
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

(* (a) fails when coalescing saves fewer packets than this out of
   [burst_count]. *)
let min_packets_saved = 1_900

(* A lone 64 B message on the uncoalesced send path (every message its own
   packet, sent at once), in virtual ns. *)
let uncoalesced_lone_ns = 7_494

let run () =
  let rec_ = Bhelp.record ~experiment:"e12" in
  Bhelp.print_header
    "E12 - scheduling & small-message coalescing (64 B messages, Myrinet)";
  let t, saved = burst () in
  let rate = rate_msg_s t in
  Printf.printf "(a) %d x %d B burst: %.2f Mmsg/s (%d packets saved)\n"
    burst_count msg_size (rate /. 1e6) saved;
  flush stdout;
  rec_ "burst_rate_msg_s" rate;
  rec_ "agg_packets_saved" (float_of_int saved);
  let lat = lone_latency () in
  Printf.printf "(b) lone message: %d ns (uncoalesced path: %d ns)\n" lat
    uncoalesced_lone_ns;
  rec_ "lone_latency_ns" (float_of_int lat);
  (* (c) ping-pong beside a watched-but-silent socket *)
  let pp_t = pingpong_beside_socket () in
  Printf.printf
    "(c) %d ping-pongs beside a silent watched socket: %d ns total\n"
    pingpong_iters pp_t;
  rec_ "pingpong_static_ns" (float_of_int pp_t);
  if saved < min_packets_saved then
    failwith
      (Printf.sprintf "e12: burst saved %d packets, expected >= %d" saved
         min_packets_saved);
  if lat > uncoalesced_lone_ns then
    failwith
      (Printf.sprintf "e12: lone message took %d ns, uncoalesced path %d ns"
         lat uncoalesced_lone_ns);
  print_endline
    "expected shape: (a) >= 1900 packets saved; (b) no coalescing delay."

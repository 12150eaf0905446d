(* Experiment E6 — NetAccess arbitration: several middleware sharing one
   node and one network.

   (a) MPI alone (baseline);
   (b) MPI + CORBA concurrently through the arbitration core: both make
       progress and the aggregate stays at the wire limit;
   (c) MPI + a middleware that busy-polls outside the arbitration layer
       (the paper's conflict: "the one which does active polling holds
       near 100% of the CPU"), collapsing MPI throughput;
   (d) interleaving-policy sweep (MadIO-vs-SysIO quanta). *)

module Bb = Engine.Bytebuf
module Cdr = Mw_corba.Cdr
module Orb = Mw_corba.Orb
module Mpi = Mw_mpi.Mpi
module Na = Netaccess.Na_core

let size = 8_192

let count = 600

(* Stream-completion throughput: bytes / (receive-complete - send-start).
   Unlike a receive-side window, this exposes starvation stalls. *)
type window = { mutable t0 : int; mutable t1 : int; mutable bytes : int }

let fresh_window () = { t0 = -1; t1 = 0; bytes = 0 }

let bw w = if w.t1 = 0 then nan else Bhelp.mb_s w.bytes (w.t1 - w.t0)

(* MPI stream with optional concurrent CORBA stream and optional CPU hog. *)
let scenario ~with_corba ~with_hog ?quanta () =
  let grid, a, b = Bhelp.myrinet_pair () in
  (match quanta with
   | Some q ->
     Na.set_quanta (Na.get a) q;
     Na.set_quanta (Na.get b) q
   | None -> ());
  let comms = Bhelp.mpi_pair grid a b in
  let mpi_w = fresh_window () in
  let corba_w = fresh_window () in
  ignore
    (Padico.spawn grid b ~name:"mpi-sink" (fun () ->
         for _ = 0 to count - 1 do
           ignore (Mpi.recv comms.(1) ~tag:1 ());
           mpi_w.bytes <- mpi_w.bytes + size
         done;
         mpi_w.t1 <- Padico.now grid));
  ignore
    (Padico.spawn grid a ~name:"mpi-src" (fun () ->
         mpi_w.t0 <- Padico.now grid;
         let payload = Bb.create size in
         for _ = 1 to count do
           Mpi.send comms.(0) ~dst:1 ~tag:1 payload
         done));
  if with_corba then begin
    let orb_a = Orb.init grid a in
    let orb_b = Orb.init grid b in
    let got = ref 0 in
    Orb.activate orb_b ~key:"sink" (fun ~op:_ _ ->
        corba_w.bytes <- corba_w.bytes + size;
        incr got;
        if !got = count then corba_w.t1 <- Padico.now grid;
        Ok Cdr.VNull);
    Orb.serve orb_b ~port:3000;
    ignore
      (Padico.spawn grid a ~name:"corba-src" (fun () ->
           corba_w.t0 <- Padico.now grid;
           let p =
             Orb.resolve orb_a
               { Orb.ior_node = b; ior_port = 3000; ior_key = "sink" }
           in
           let payload = Cdr.VOctets (Bb.create size) in
           for _ = 1 to count do
             Orb.invoke_oneway p ~op:"push" payload
           done))
  end;
  if with_hog then
    (* A middleware doing active polling outside the arbitration layer:
       user-level cooperative threads mean the polling loop relinquishes
       the CPU only very rarely — everything else stalls behind each long
       spin (the paper: "the one which does active polling holds near
       100% of the CPU time; it will result in inequity or even
       deadlock"). *)
    ignore
      (Padico.spawn grid b ~name:"busy-poller" (fun () ->
           while Padico.now grid < Engine.Time.sec 2990 do
             Simnet.Node.cpu b 300_000_000;
             Engine.Proc.sleep (Padico.sim grid) 1_000
           done));
  Padico.run grid ~until:(Engine.Time.sec 3000);
  let aggregate =
    if with_corba && mpi_w.t1 > 0 && corba_w.t1 > 0 then
      Bhelp.mb_s
        (mpi_w.bytes + corba_w.bytes)
        (max mpi_w.t1 corba_w.t1 - min mpi_w.t0 corba_w.t0)
    else nan
  in
  (bw mpi_w, bw corba_w, aggregate)

let run () =
  Bhelp.print_header
    "E6 — arbitration: middleware sharing one node (8 KB messages, MB/s, Myrinet)";
  let mpi_alone, _, _ = scenario ~with_corba:false ~with_hog:false () in
  Printf.printf "%-46s MPI %s\n" "(a) MPI alone" (Bhelp.pp_mb mpi_alone);
  flush stdout;
  let m, c, agg = scenario ~with_corba:true ~with_hog:false () in
  Printf.printf "%-46s MPI %s   CORBA %s   (shared-window aggregate %s)\n"
    "(b) MPI + CORBA through NetAccess" (Bhelp.pp_mb m) (Bhelp.pp_mb c)
    (Bhelp.pp_mb agg);
  flush stdout;
  let m, _, _ = scenario ~with_corba:false ~with_hog:true () in
  Printf.printf "%-46s MPI %s\n"
    "(c) MPI + busy-polling middleware (no arb.)" (Bhelp.pp_mb m);
  flush stdout;
  print_endline
    "(d) interleaving policy sweep (MPI + CORBA; quanta only matter under";
  print_endline "    dispatcher backlog, so differences stay small here):";
  List.iter
    (fun (mq, sq) ->
       let m, c, _ =
         scenario ~with_corba:true ~with_hog:false
           ~quanta:{ Na.madio_quantum = mq; sysio_quantum = sq }
           ()
       in
       Printf.printf "    madio:sysio = %2d:%-2d   MPI %s   CORBA %s\n" mq sq
         (Bhelp.pp_mb m) (Bhelp.pp_mb c);
       flush stdout)
    [ (1, 1); (4, 4); (16, 1); (1, 16) ];
  print_endline
    "expected shape: (b) both progress, aggregate near the wire; (c) collapses."

(* Edge-gateway capacity machinery (see DESIGN.md section 15): the
   readiness-queue wakeup protocol under random interest churn, the
   idle-connection byte-budget pin, closed-connection reaping on a plain
   grid, and the Hostio fd-ceiling guard. *)

module Bb = Engine.Bytebuf
module Sim = Engine.Sim
module Time = Engine.Time
module Node = Simnet.Node
module Na = Netaccess.Na_core
module Sysio = Netaccess.Sysio
module Tcp = Drivers.Tcp
module Gridgen = Scenario.Gridgen

(* ---------- readiness-queue protocol ---------- *)

(* Model: [nsrc] interest slots, each holding a live source (or none). A
   random schedule of Mark / Unregister / Re-register ops runs against a
   real dispatcher. Each model slot counts events
   not yet drained; the source's drain consumes them all (the per-
   connection queue drain). Invariants, checked after quiescence:

   - no lost wakeup: every live slot has zero undrained events — a mark
     always leads to a drain, including marks that coalesced while the
     source was already queued;
   - no duplicate dispatch: a drain never finds zero pending events —
     the [s_queued] flag admits at most one ready-list entry per source;
   - no ghost dispatch: a drain never runs for an unregistered slot;
   - the ready list itself is empty once the grid quiesces. *)

let nsrc = 8

let readiness_holds ops =
  let grid = Padico.create () in
  let n = Padico.add_node grid "n" in
  let core = Na.get n in
  let pending = Array.make nsrc 0 in
  let alive = Array.make nsrc false in
  let spurious = ref 0 and ghost = ref 0 in
  let mk_src i =
    Na.register_source core () ~drain:(fun () ->
        if not alive.(i) then incr ghost
        else if pending.(i) = 0 then incr spurious
        else pending.(i) <- 0)
  in
  let srcs = Array.init nsrc mk_src in
  Array.fill alive 0 nsrc true;
  let t = ref 0 in
  List.iter
    (fun (x, y) ->
       let i = x mod nsrc in
       (* Same-timestamp bursts (delay 0) stress mark coalescing. *)
       t := !t + 700 * (y mod 4);
       Sim.after (Padico.sim grid) !t (fun () ->
           match y mod 3 with
           | 0 ->
             (* Fire: only live interests owe a drain. *)
             if alive.(i) then pending.(i) <- pending.(i) + 1;
             Na.mark_ready core srcs.(i)
           | 1 ->
             (* Remove interest: undelivered events are not owed, like
                closing an fd with events still queued. *)
             if alive.(i) then begin
               Na.unregister_source core srcs.(i);
               alive.(i) <- false;
               pending.(i) <- 0
             end
           | _ ->
             (* Replace interest with a fresh source on the same slot. *)
             if alive.(i) then begin
               Na.unregister_source core srcs.(i);
               pending.(i) <- 0
             end;
             srcs.(i) <- mk_src i;
             alive.(i) <- true))
    ops;
  Tutil.run_grid grid;
  let lost = Array.exists (fun p -> p > 0) pending in
  (not lost) && !spurious = 0 && !ghost = 0 && Na.ready_depth core = 0

let prop_readiness =
  QCheck.Test.make
    ~name:"ready queue: no lost wakeup, no duplicate dispatch" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 150) (pair small_nat small_nat))
    readiness_holds

(* ---------- edge event FIFO vs the queue it encodes ---------- *)

(* Reference: a readiness source's pending events as a plain queue. A new
   [Readable] / [Writable] is absorbed while one of the same kind is still
   queued; lifecycle events are appended. Random push/pop schedules (each
   lifecycle event pushed at most once, as the transport fires them) must
   deliver the same events in the same order from [Sysio.Event_fifo]. *)

let events =
  [| Tcp.Established; Tcp.Readable; Tcp.Writable; Tcp.Peer_closed; Tcp.Reset |]

let ref_push q ev =
  let absorbed =
    match ev with
    | Tcp.Readable | Tcp.Writable ->
      Queue.fold (fun acc e -> acc || e = ev) false q
    | Tcp.Established | Tcp.Peer_closed | Tcp.Reset -> false
  in
  if not absorbed then Queue.push ev q

let fifo_matches_queue ops =
  let module F = Sysio.Event_fifo in
  let q = Queue.create () and f = ref F.empty in
  let got_q = ref [] and got_f = ref [] in
  let fired = Hashtbl.create 4 in
  let pop () =
    if not (Queue.is_empty q) then got_q := Queue.pop q :: !got_q;
    if not (F.is_empty !f) then begin
      got_f := F.head !f :: !got_f;
      f := F.tail !f
    end
  in
  List.iter
    (fun op ->
       if op >= Array.length events then pop ()
       else
         let ev = events.(op) in
         let lifecycle = ev <> Tcp.Readable && ev <> Tcp.Writable in
         if not (lifecycle && Hashtbl.mem fired ev) then begin
           Hashtbl.replace fired ev ();
           ref_push q ev;
           f := F.push !f ev
         end)
    ops;
  while not (Queue.is_empty q && F.is_empty !f) do
    pop ()
  done;
  !got_q = !got_f

let prop_event_fifo =
  QCheck.Test.make ~name:"event FIFO delivers as the reference queue"
    ~count:500
    QCheck.(list_of_size Gen.(int_range 0 60) (int_range 0 7))
    fifo_matches_queue

(* ---------- idle-connection byte budget ---------- *)

(* The regression pin behind `padico_cli flow --budget` and E15's
   bytes-per-connection column: an established connection that has never
   written costs exactly [Tcp.conn_overhead_bytes] — the send ring is
   lazy, so 100k idle connections are 100k * 768 B, not 100k * sndbuf.
   After one request/ack exchange every connection is back at that floor:
   both sides' rings were returned once their data was acknowledged.
   After every connection closes, reaping returns both stacks to zero
   resident bytes. *)

let test_idle_budget () =
  let idle = 32 in
  let grid = Padico.create () in
  let s = Padico.add_node grid "s" in
  let c = Padico.add_node grid "c" in
  let seg =
    Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ s; c ]
  in
  let sio_s = Sysio.get s and sio_c = Sysio.get c in
  let st_s = Sysio.stack_on sio_s seg and st_c = Sysio.stack_on sio_c seg in
  let requests = ref 0 and acks = ref 0 in
  Sysio.listen ~sndbuf:4096 ~rcvbuf:4096 sio_s st_s ~port:9500 (fun conn ->
      Sysio.watch sio_s conn (function
        | Tcp.Readable ->
          (match Sysio.read conn ~max:4096 with
           | Some req ->
             requests := !requests + Bb.length req;
             ignore (Sysio.write conn (Bb.of_string "ack!"))
           | None -> ())
        | Tcp.Peer_closed ->
          Sysio.unwatch sio_s conn;
          Sysio.close conn
        | _ -> ());
      if Sysio.peer_closed conn then begin
        Sysio.unwatch sio_s conn;
        Sysio.close conn
      end);
  let conns =
    List.init idle (fun _ ->
        Sysio.connect ~sndbuf:4096 ~rcvbuf:4096 sio_c st_c ~dst:(Node.id s)
          ~port:9500 (fun conn -> function
            | Tcp.Readable ->
              (match Sysio.read conn ~max:4096 with
               | Some ack -> acks := !acks + Bb.length ack
               | None -> ())
            | _ -> ()))
  in
  Tutil.run_grid grid;
  Tutil.check_int "server holds every idle connection" idle
    (Sysio.conn_count sio_s);
  Tutil.check_int "idle server conn = overhead floor, no eager buffers"
    (idle * Tcp.conn_overhead_bytes)
    (Sysio.bytes_resident sio_s);
  Tutil.check_int "idle client conn = overhead floor"
    (idle * Tcp.conn_overhead_bytes)
    (Sysio.bytes_resident sio_c);
  List.iter
    (fun conn -> Tutil.check_int "request accepted" 64
        (Sysio.write conn (Bb.create 64)))
    conns;
  Tutil.run_grid grid;
  Tutil.check_int "every request served" (idle * 64) !requests;
  Tutil.check_int "every ack received" (idle * 4) !acks;
  Tutil.check_int "served server conn back at the floor: ring returned"
    (idle * Tcp.conn_overhead_bytes)
    (Sysio.bytes_resident sio_s);
  Tutil.check_int "served client conn back at the floor: ring returned"
    (idle * Tcp.conn_overhead_bytes)
    (Sysio.bytes_resident sio_c);
  List.iter Sysio.close conns;
  Tutil.run_grid grid;
  Tutil.check_int "all server conns reaped after close" 0
    (Sysio.conn_count sio_s);
  Tutil.check_int "server resident bytes return to zero" 0
    (Sysio.bytes_resident sio_s);
  Tutil.check_int "client resident bytes return to zero" 0
    (Sysio.bytes_resident sio_c);
  Tutil.check_bool "reap counter saw the churn" true
    (Sysio.conns_reaped sio_s >= idle)

(* ---------- retained heap per idle connection ---------- *)

(* The accounting floor above is a measured bound, pinned here: after a
   full major collection, the live-heap growth caused by [idle] idle
   established watched connections (both ends in this process) must stay
   within [Tcp.conn_overhead_bytes] per connection end — the connection
   record, its table slot, its SysIO readiness source and nothing
   eager. The pin sits below that floor (50 words on 64-bit) at the
   measured 46.9 words plus one: the drained event queue gives its arrays
   back, so they are not part of the growth. *)

let idle_max_words = 48

let test_idle_live_words () =
  let max_words =
    min idle_max_words (Tcp.conn_overhead_bytes / (Sys.word_size / 8))
  in
  let idle = 10_000 in
  let grid = Padico.create () in
  let s = Padico.add_node grid "s" in
  let c = Padico.add_node grid "c" in
  let seg =
    Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ s; c ]
  in
  let sio_s = Sysio.get s and sio_c = Sysio.get c in
  let st_s = Sysio.stack_on sio_s seg and st_c = Sysio.stack_on sio_c seg in
  Sysio.listen ~sndbuf:4096 ~rcvbuf:4096 sio_s st_s ~port:9500 (fun conn ->
      Sysio.watch sio_s conn (fun _ -> ()));
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let conns =
    Array.init idle (fun _ ->
        Sysio.connect ~sndbuf:4096 ~rcvbuf:4096 sio_c st_c ~dst:(Node.id s)
          ~port:9500 (fun _ _ -> ()))
  in
  Tutil.run_grid grid;
  Gc.compact ();
  let words = (Gc.stat ()).Gc.live_words - before in
  Tutil.check_int "server holds every idle connection" idle
    (Sysio.conn_count sio_s);
  Tutil.check_int "client holds every idle connection" idle
    (Sysio.conn_count sio_c);
  ignore (Sys.opaque_identity conns);
  let per_end = float_of_int words /. float_of_int (2 * idle) in
  Printf.printf "retained %.1f words per idle connection end\n" per_end;
  if per_end > float_of_int max_words then
    Alcotest.failf "idle connection end retains %.1f words (budget %d)" per_end
      max_words

(* ---------- retained heap per served connection ---------- *)

(* The same measurement for connections an edge frontend has served:
   [n] clients each send one request to a [Gridgen.serve_shard] frontend
   over a loss-free WAN, read its 4-byte ack and stay open. After a full
   major collection the live-heap growth per connection end must stay
   within [served_max_words]. It covers the server's parser state and
   whatever the exchange left behind on both ends (receive queues,
   retransmission timers and their queued events, loss-recovery blocks);
   the clients share one static callback. Send rings parked in the
   process-wide pool once acknowledged are not per-connection state: the
   pool is emptied before each snapshot. *)

let served_max_words = 74
let served_request = Bb.of_string "\000\000\000\004ping"
let served_acks = ref 0

let served_client conn = function
  | Tcp.Established -> ignore (Sysio.write conn served_request)
  | Tcp.Readable ->
    (match Sysio.read conn ~max:16 with
     | Some ack -> served_acks := !served_acks + Bb.length ack
     | None -> ())
  | _ -> ()

let test_served_live_words () =
  let n = 10_000 in
  let wan =
    { Simnet.Presets.vthd with Simnet.Linkmodel.loss = 0.0; jitter_ns = 0 }
  in
  let e =
    Gridgen.edge ~wan ~shards:1 ~client_nodes:1 ~clients:n ~churn:0.0
      ~tail:1.3 ()
  in
  let served = Atomic.make 0 in
  List.iter (Gridgen.serve_shard e served) e.Gridgen.e_shards;
  let frontend = List.hd e.Gridgen.e_shards in
  let sio_c = Sysio.get (List.hd e.Gridgen.e_clients) in
  let st_c = Sysio.stack_on sio_c e.Gridgen.e_wan in
  served_acks := 0;
  Bb.Pool.reset ();
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let conns =
    Array.init n (fun _ ->
        Sysio.connect ~sndbuf:4096 ~rcvbuf:4096 sio_c st_c
          ~dst:(Node.id frontend) ~port:e.Gridgen.e_port served_client)
  in
  Tutil.run_grid e.Gridgen.e_grid;
  Bb.Pool.reset ();
  Gc.compact ();
  let words = (Gc.stat ()).Gc.live_words - before in
  Tutil.check_int "every request served" n (Atomic.get served);
  Tutil.check_int "every ack received" (4 * n) !served_acks;
  Tutil.check_int "frontend holds every connection" n
    (Sysio.conn_count (Sysio.get frontend));
  ignore (Sys.opaque_identity conns);
  let per_end = float_of_int words /. float_of_int (2 * n) in
  Printf.printf "retained %.1f words per served connection end\n" per_end;
  if per_end > float_of_int served_max_words then
    Alcotest.failf "served connection end retains %.1f words (budget %d)"
      per_end served_max_words

(* ---------- reaping on a plain grid ---------- *)

(* Every TCP stack reaps, not only an edge gateway's: on a plain grid,
   [n] connections opened and closed through SysIO leave both stacks
   empty, and each end counts exactly [n] reaps. *)

let test_plain_reap () =
  let n = 16 and port = 9600 in
  let grid = Padico.create () in
  let s = Padico.add_node grid "s" in
  let c = Padico.add_node grid "c" in
  let seg =
    Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ s; c ]
  in
  let sio_s = Sysio.get s and sio_c = Sysio.get c in
  let st_s = Sysio.stack_on sio_s seg and st_c = Sysio.stack_on sio_c seg in
  Sysio.listen sio_s st_s ~port (fun conn ->
      let closed = ref false in
      let finish () =
        if not !closed then begin
          closed := true;
          Sysio.unwatch sio_s conn;
          Sysio.close conn
        end
      in
      Sysio.watch sio_s conn (function
        | Tcp.Peer_closed -> finish ()
        | _ -> ());
      if Sysio.peer_closed conn then finish ());
  for _ = 1 to n do
    ignore
      (Sysio.connect sio_c st_c ~dst:(Node.id s) ~port (fun conn -> function
         | Tcp.Established -> Sysio.close conn
         | Tcp.Peer_closed -> Sysio.unwatch sio_c conn
         | _ -> ()))
  done;
  Tutil.run_grid grid;
  Tutil.check_int "server stack empty" 0 (Sysio.conn_count sio_s);
  Tutil.check_int "client stack empty" 0 (Sysio.conn_count sio_c);
  Tutil.check_int "server reaped every connection" n (Sysio.conns_reaped sio_s);
  Tutil.check_int "client reaped every connection" n (Sysio.conns_reaped sio_c);
  Tutil.check_int "no resident bytes left" 0
    (Sysio.bytes_resident sio_s + Sysio.bytes_resident sio_c)

(* A half-open passive connection whose dialer vanished right after its
   SYN (no RST ever arrives): the server retransmits the SYN-ACK with
   exponential backoff, gives up after the fifth, and reaps the slot
   without ever accepting it. *)

let test_half_open_reap () =
  let port = 9601 in
  let grid = Padico.create () in
  let s = Padico.add_node grid "s" in
  let c = Padico.add_node grid "c" in
  let seg =
    Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ s; c ]
  in
  let sio_s = Sysio.get s and sio_c = Sysio.get c in
  let st_s = Sysio.stack_on sio_s seg and st_c = Sysio.stack_on sio_c seg in
  Sysio.listen sio_s st_s ~port (fun _ ->
      Alcotest.fail "a half-open connection was accepted");
  let conn =
    Sysio.connect sio_c st_c ~dst:(Node.id s) ~port (fun _ _ -> ())
  in
  (* The SYN is already on its way. Closing in SYN_SENT drops the
     connection silently, and with no TCP handler the dialer answers
     nothing — not even the RST a closed port would send. *)
  Sysio.close conn;
  Simnet.Segment.clear_handler seg c ~proto:Simnet.Packet.Proto.tcp;
  Padico.run grid ~until:(Time.sec 10);
  Tutil.check_int "half-open connection held at 10 s" 1
    (Sysio.conn_count sio_s);
  Tutil.check_int "four SYN-ACKs by 10 s" 4
    (Simnet.Segment.frames_unclaimed seg);
  Padico.run grid ~until:(Time.sec 120);
  Tutil.check_int "half-open connection reaped" 0 (Sysio.conn_count sio_s);
  Tutil.check_int "reap counted" 1 (Sysio.conns_reaped sio_s);
  Tutil.check_int "gave up after five SYN-ACKs" 5
    (Simnet.Segment.frames_unclaimed seg)

(* ---------- Hostio fd ceiling ---------- *)

(* select() silently corrupts memory past FD_SETSIZE; the loop must
   refuse such descriptors loudly instead. *)

let test_fd_guard () =
  let loop = Hostio.Loop.create () in
  let bad : Unix.file_descr = Obj.magic 2000 in
  (match Hostio.Loop.watch_fd loop bad ~passive:false with
   | () -> Alcotest.fail "watch_fd accepted an fd beyond FD_SETSIZE"
   | exception Invalid_argument _ -> ());
  Tutil.check_int "rejected fd is not watched" 0
    (Hostio.Loop.watched_fds loop);
  (* A low-numbered descriptor passes the guard and unwatches cleanly. *)
  let r, w = Unix.pipe () in
  Hostio.Loop.watch_fd loop r ~passive:false;
  Tutil.check_int "low fd accepted" 1 (Hostio.Loop.watched_fds loop);
  Hostio.Loop.unwatch_fd loop r;
  Tutil.check_int "unwatched" 0 (Hostio.Loop.watched_fds loop);
  Unix.close r;
  Unix.close w;
  Tutil.check_int "ceiling is select's FD_SETSIZE" 1024 Hostio.Loop.fd_limit

let () =
  Alcotest.run "edge"
    [ Tutil.qsuite "readiness" [ prop_readiness ];
      Tutil.qsuite "events" [ prop_event_fifo ];
      ("budget",
       [ Alcotest.test_case "idle bytes pinned" `Quick test_idle_budget;
         Alcotest.test_case "idle live words" `Quick test_idle_live_words;
         Alcotest.test_case "served live words" `Quick test_served_live_words ]);
      ("reap",
       [ Alcotest.test_case "plain grid reaps closed connections" `Quick
           test_plain_reap;
         Alcotest.test_case "half-open passive connection reaped" `Quick
           test_half_open_reap ]);
      ("hostio",
       [ Alcotest.test_case "fd ceiling guard" `Quick test_fd_guard ]) ]

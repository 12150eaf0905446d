(* Hostio: the real-OS execution backend. Loop/timer semantics, stream
   round-trips over socketpair and real TCP, graceful close vs RST, and the
   conformance-kit subset on the host backend. Everything here runs in real
   time, so durations are kept small and deadlines generous. *)

module Loop = Hostio.Loop
module Stream = Hostio.Stream
module Bb = Engine.Bytebuf
module Clock = Engine.Clock
module Time = Engine.Time

let check_int = Tutil.check_int
let check_bool = Tutil.check_bool

(* ---------- timers ---------- *)

let test_timer_order () =
  let loop = Loop.create () in
  let clk = Loop.clock loop in
  let fired = ref [] in
  Clock.after clk (Time.ms 5) (fun () -> fired := 5 :: !fired);
  Clock.after clk (Time.ms 1) (fun () -> fired := 1 :: !fired);
  Clock.after clk (Time.ms 3) (fun () -> fired := 3 :: !fired);
  Loop.run loop;
  Alcotest.(check (list int)) "firing order" [ 1; 3; 5 ] (List.rev !fired);
  check_int "all fired" 3 (Loop.timers_fired loop)

let test_timer_monotonicity () =
  let loop = Loop.create () in
  let clk = Loop.clock loop in
  check_bool "monotonic kind" true (Clock.kind clk = Clock.Monotonic);
  check_bool "loop recoverable" true
    (match Loop.of_clock clk with Some l -> l == loop | None -> false);
  let t_armed = Clock.now clk in
  let t_fired = ref (-1) in
  Clock.after clk (Time.ms 10) (fun () -> t_fired := Clock.now clk);
  Loop.run loop;
  let elapsed = !t_fired - t_armed in
  check_bool "fired" true (!t_fired >= 0);
  check_bool
    (Printf.sprintf "never early (elapsed %dns)" elapsed)
    true
    (elapsed >= Time.ms 10);
  check_bool
    (Printf.sprintf "within bounds (elapsed %dns)" elapsed)
    true
    (elapsed < Time.sec 5)

let test_timer_cancel () =
  let loop = Loop.create () in
  let clk = Loop.clock loop in
  let fired = ref false in
  (* The long timer is cancelled: the loop must quiesce without waiting the
     full 60 s — the wall-clock test harness is the proof. *)
  let tm = Clock.arm clk (Time.sec 60) (fun () -> fired := true) in
  Clock.after clk (Time.ms 1) (fun () -> Clock.cancel tm);
  Clock.cancel tm;
  Clock.cancel tm (* idempotent *);
  Loop.run loop;
  check_bool "cancelled timer never fires" false !fired;
  check_int "no live timers" 0 (Loop.live_timers loop)

let test_proc_on_host_clock () =
  let loop = Loop.create () in
  let clk = Loop.clock loop in
  let order = ref [] in
  let h =
    Engine.Proc.spawn_on clk ~name:"host-proc" (fun () ->
        order := `A :: !order;
        Engine.Proc.sleep_on clk (Time.ms 2);
        order := `B :: !order)
  in
  Clock.after clk (Time.ms 1) (fun () -> order := `T :: !order);
  Loop.run loop;
  Tutil.assert_done h;
  check_bool "sleep interleaves with timers" true
    (List.rev !order = [ `A; `T; `B ])

(* ---------- streams ---------- *)

let drain stream =
  let acc = Buffer.create 256 in
  let rec go () =
    match Stream.read stream ~max:4096 with
    | Some b ->
      Buffer.add_string acc (Bb.to_string b);
      go ()
    | None -> ()
  in
  go ();
  Buffer.contents acc

let test_pair_echo () =
  let loop = Loop.create () in
  let a, b = Stream.pair loop in
  let got = Buffer.create 64 in
  (* b echoes everything back; a collects the echo and closes. *)
  Stream.set_event_cb b (fun ev ->
      match ev with
      | Stream.Readable ->
        let s = drain b in
        ignore (Stream.write b (Bb.of_string s))
      | Stream.Peer_closed -> Stream.close b
      | _ -> ());
  let msg = "hostio says hello over a socketpair" in
  Stream.set_event_cb a (fun ev ->
      match ev with
      | Stream.Readable ->
        Buffer.add_string got (drain a);
        if Buffer.length got >= String.length msg then Stream.close a
      | _ -> ());
  ignore (Stream.write a (Bb.of_string msg));
  Loop.run loop;
  Alcotest.(check string) "echo round-trip" msg (Buffer.contents got);
  check_bool "a closed" false (Stream.is_open a);
  check_bool "b closed" false (Stream.is_open b)

let test_tcp_echo () =
  let loop = Loop.create () in
  let server_got = Buffer.create 64 in
  let listener =
    Stream.listen loop (fun conn ->
        Stream.set_event_cb conn (fun ev ->
            match ev with
            | Stream.Readable ->
              let s = drain conn in
              Buffer.add_string server_got s;
              ignore (Stream.write conn (Bb.of_string s))
            | Stream.Peer_closed -> Stream.close conn
            | _ -> ()))
  in
  let port = Stream.listener_port listener in
  check_bool "real ephemeral port" true (port > 0);
  let c = Stream.connect loop ~port () in
  let echo = Buffer.create 64 in
  let msg = String.concat "," (List.init 200 string_of_int) in
  Stream.set_event_cb c (fun ev ->
      match ev with
      | Stream.Established -> ignore (Stream.write c (Bb.of_string msg))
      | Stream.Readable ->
        Buffer.add_string echo (drain c);
        if Buffer.length echo >= String.length msg then Stream.close c
      | _ -> ());
  Loop.run loop;
  Stream.close_listener listener;
  Alcotest.(check string) "server saw the bytes" msg (Buffer.contents server_got);
  Alcotest.(check string) "client got the echo" msg (Buffer.contents echo)

let test_graceful_close () =
  let loop = Loop.create () in
  let a, b = Stream.pair loop in
  let events = ref [] in
  Stream.set_event_cb b (fun ev ->
      match ev with
      | Stream.Readable -> events := `Data (drain b) :: !events
      | Stream.Peer_closed ->
        events := `Fin :: !events;
        Stream.close b
      | Stream.Reset -> events := `Reset :: !events
      | _ -> ());
  ignore (Stream.write a (Bb.of_string "last words"));
  Stream.close a;
  Loop.run loop;
  (* Graceful: data first, then FIN — never a reset. *)
  check_bool "data then fin" true
    (List.rev !events = [ `Data "last words"; `Fin ]);
  check_bool "peer_closed observable" true (Stream.peer_closed b)

let test_abort_rst () =
  let loop = Loop.create () in
  let server_events = ref [] in
  let listener =
    Stream.listen loop (fun conn ->
        Stream.set_event_cb conn (fun ev ->
            match ev with
            | Stream.Readable -> ignore (drain conn)
            | Stream.Peer_closed ->
              server_events := `Fin :: !server_events;
              Stream.close conn
            | Stream.Reset -> server_events := `Reset :: !server_events
            | _ -> ()))
  in
  let c = Stream.connect loop ~port:(Stream.listener_port listener) () in
  Stream.set_event_cb c (fun ev ->
      match ev with
      | Stream.Established ->
        ignore (Stream.write c (Bb.of_string "doomed"));
        Stream.abort c
      | _ -> ());
  Loop.run loop;
  Stream.close_listener listener;
  check_bool "abort closed locally" false (Stream.is_open c);
  (* The peer must observe a hard termination (RST), not a graceful FIN.
     Depending on delivery timing the kernel may or may not hand the
     in-flight bytes over first; the termination kind is the contract. *)
  check_bool
    (Printf.sprintf "peer saw reset (events: %d)" (List.length !server_events))
    true
    (List.mem `Reset !server_events && not (List.mem `Fin !server_events))

(* ---------- stream buffers ---------- *)

(* The stream's send-ring cap and receive high watermark (256 KiB each). *)
let stream_cap = 262_144

(* A byte stream that does not repeat with any small period, so a byte
   written out of place or twice never matches. *)
let pat i = Char.unsafe_chr ((i * 7 + (i / 251)) land 0xff)

let pattern_slice pos len = Bb.of_string (String.init len (fun i -> pat (pos + i)))

let check_pattern what got =
  let bad = ref (-1) in
  String.iteri (fun i c -> if !bad < 0 && c <> pat i then bad := i) got;
  check_int (what ^ ": first byte out of place") (-1) !bad

(* Run the loop for [ms] wall milliseconds (both ends stay watched). *)
let run_for loop ms = Loop.run loop ~until_ns:(Loop.now_ns loop + Time.ms ms)

(* A producer that always has more to say: [total] pattern bytes offered in
   gathered pieces of [piece] bytes (split in two), as fast as the stream
   accepts them, then a graceful close. *)
let produce a ~total ~piece =
  let pos = ref 0 in
  let rec push () =
    if !pos < total && Stream.write_space a > 0 then begin
      let len = min piece (total - !pos) in
      let cut = len / 3 in
      let k =
        Stream.writev a
          [ pattern_slice !pos cut; pattern_slice (!pos + cut) (len - cut) ]
      in
      pos := !pos + k;
      if k = len then push ()
    end;
    if !pos >= total then Stream.close a
  in
  Stream.set_event_cb a (function
    | Stream.Established | Stream.Writable -> push ()
    | _ -> ());
  push ();
  pos

(* The send ring against a plain byte queue: random gathered pushes and
   writes that take a random prefix of the front run, on a ring small
   enough to wrap and grow often. Every byte comes out once, in order,
   and the ring holds a block exactly while bytes are pending. *)
let prop_txring_model =
  let op =
    QCheck.Gen.(
      oneof
        [ map (fun l -> `Push l) (list_size (1 -- 3) (0 -- 3_000));
          map (fun k -> `Write k) (0 -- 9_000) ])
  in
  QCheck.Test.make ~name:"send ring keeps every byte in order" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 60) op))
    (fun ops ->
       let cap = 16_384 in
       let r = Hostio.Txring.create ~cap in
       let pushed = ref 0 in
       let out = Buffer.create 4096 in
       let write_up_to k =
         Hostio.Txring.write_front r (fun buf off len ->
             let n = min len k in
             Buffer.add_subbytes out buf off n;
             n)
       in
       let ok = ref true in
       let check () =
         let len = Hostio.Txring.length r and held = Hostio.Txring.held_bytes r in
         if len <> !pushed - Buffer.length out
            || (len = 0) <> (held = 0)
            || held > cap || held land (held - 1) <> 0 || held < len
         then ok := false
       in
       List.iter
         (fun op ->
            (match op with
             | `Push sizes ->
               let pos = ref !pushed in
               let pieces =
                 List.map
                   (fun n ->
                      let b = pattern_slice !pos n in
                      pos := !pos + n;
                      b)
                   sizes
               in
               let n = min (!pos - !pushed) (Hostio.Txring.space r) in
               Hostio.Txring.push r pieces n;
               pushed := !pushed + n
             | `Write k -> ignore (write_up_to k));
            check ())
         ops;
       while Hostio.Txring.length r > 0 do
         ignore (write_up_to max_int)
       done;
       check ();
       let got = Buffer.contents out in
       !ok
       && String.length got = !pushed
       && String.equal got (String.init !pushed pat))

(* Many passes round the send ring: the producer keeps it full, the
   consumer drains in odd-sized reads, so appends and flushes keep
   crossing the ring's end. Every byte must come out once, in order. *)
let test_ring_wrap () =
  let loop = Loop.create () in
  let a, b = Stream.pair loop in
  let total = 3 * 1024 * 1024 in
  let got = Buffer.create total in
  let ring_used = ref 0 in
  Stream.set_event_cb b (function
    | Stream.Readable ->
      ring_used := max !ring_used (Stream.held_bytes a);
      let rec take () =
        match Stream.read b ~max:5003 with
        | Some buf ->
          Buffer.add_string got (Bb.to_string buf);
          take ()
        | None -> ()
      in
      take ()
    | Stream.Peer_closed -> Stream.close b
    | _ -> ());
  ignore (produce a ~total ~piece:7001);
  Loop.run ~until_ns:(Time.sec 20) loop;
  check_bool "the send ring was in use" true (!ring_used > 0);
  check_int "every byte" total (Buffer.length got);
  check_pattern "ring wrap" (Buffer.contents got)

(* The peer's application does not read: the kernel buffers and the
   peer's receive queue fill (short write(2)s, then EAGAIN), the rest
   waits in the ring until it is full, and a write is accepted only in
   part. Once the peer drains, every accepted byte arrives, in order, and
   nothing else. *)
let test_short_write_keeps_bytes () =
  let loop = Loop.create () in
  let a, b = Stream.pair loop in
  let first = Stream.write a (pattern_slice 0 stream_cap) in
  check_int "first write accepted whole" stream_cap first;
  let accepted = ref first in
  let short = ref false and tries = ref 0 in
  while (not !short) && !tries < 1_000 do
    let k = Stream.write a (pattern_slice !accepted 10_007) in
    accepted := !accepted + k;
    incr tries;
    run_for loop 1;
    if k < 10_007 then short := true
  done;
  check_bool "a write came up short" true !short;
  check_int "no space left after a short write" 0 (Stream.write_space a);
  Stream.close a;
  let got = Buffer.create !accepted in
  Stream.set_event_cb b (function
    | Stream.Readable -> Buffer.add_string got (drain b)
    | Stream.Peer_closed -> Stream.close b
    | _ -> ());
  Loop.run ~until_ns:(Time.sec 20) loop;
  check_int "every accepted byte" !accepted (Buffer.length got);
  check_pattern "short write" (Buffer.contents got)

(* The receiver stops reading at the 256 KiB cap, stays paused while more
   than half of it is unread, and reads again once it is down to half. *)
let test_rx_pause_resume () =
  let loop = Loop.create () in
  let a, b = Stream.pair loop in
  ignore (produce a ~total:(8 * stream_cap) ~piece:65_536);
  Stream.set_event_cb b ignore;
  run_for loop 200;
  let full = Stream.readable_bytes b in
  check_bool
    (Printf.sprintf "paused at the cap (%d buffered)" full)
    true
    (full >= stream_cap && full < stream_cap + 65_536);
  run_for loop 50;
  check_int "nothing read while paused" full (Stream.readable_bytes b);
  let take n =
    let left = ref n in
    while !left > 0 do
      match Stream.read b ~max:!left with
      | Some buf -> left := !left - Bb.length buf
      | None -> Alcotest.fail "buffered bytes missing"
    done
  in
  take (full - (stream_cap / 2) - 1);
  run_for loop 50;
  check_int "still paused above half" (stream_cap / 2 + 1)
    (Stream.readable_bytes b);
  take 1;
  run_for loop 50;
  check_bool "reading again at half" true
    (Stream.readable_bytes b > stream_cap / 2)

(* A 4-byte header sent as two 2-byte writes arrives in two read(2)s and
   still comes out of one [read ~max:4] whole. *)
let test_header_coalesces () =
  let loop = Loop.create () in
  let a, b = Stream.pair loop in
  let reads = ref 0 in
  Stream.set_event_cb b (function
    | Stream.Readable ->
      incr reads;
      Loop.stop loop
    | _ -> ());
  ignore (Stream.write a (Bb.of_string "ab"));
  Loop.run ~until_ns:(Time.sec 5) loop;
  ignore (Stream.write a (Bb.of_string "cd"));
  Loop.run ~until_ns:(Time.sec 5) loop;
  check_int "two reads" 2 !reads;
  Tutil.check_string "one header" "abcd"
    (match Stream.read b ~max:4 with Some h -> Bb.to_string h | None -> "");
  Stream.close a;
  Stream.close b

(* A stream holds no buffer until it moves data, and gives its send ring
   back to the pool when it is torn down, however that happens. *)
let test_buffers_released () =
  let loop = Loop.create () in
  let a, b = Stream.pair loop in
  check_int "idle: nothing held" 0 (Stream.held_bytes a + Stream.held_bytes b);
  let fill s =
    let tries = ref 0 in
    while Stream.write s (pattern_slice 0 65_536) > 0 && !tries < 100 do
      incr tries;
      run_for loop 1
    done
  in
  fill a;
  check_int "full ring held" stream_cap (Stream.held_bytes a);
  let parked = Bb.Pool.sized_parked_bytes () in
  Stream.abort a;
  check_int "abort: nothing held" 0 (Stream.held_bytes a);
  check_int "abort: ring pooled" (parked + stream_cap)
    (Bb.Pool.sized_parked_bytes ());
  Stream.close b;
  let c, d = Stream.pair loop in
  fill c;
  Stream.reset c;
  check_int "reset: nothing held" 0 (Stream.held_bytes c);
  Stream.close d;
  (* Graceful: the ring drains into the kernel, then the fd closes. *)
  let e, f = Stream.pair loop in
  let total = 4 * stream_cap in
  ignore (produce e ~total ~piece:65_536);
  let got = ref 0 in
  Stream.set_event_cb f (function
    | Stream.Readable -> got := !got + String.length (drain f)
    | Stream.Peer_closed -> Stream.close f
    | _ -> ());
  Loop.run ~until_ns:(Time.sec 20) loop;
  check_int "graceful: every byte" total !got;
  check_bool "graceful: closed" false (Stream.is_open e);
  check_int "graceful: nothing held" 0 (Stream.held_bytes e)

(* ---------- host backend: end-to-end through Padico ---------- *)

(* A VLink request/response over the full stack — selector, SysIO,
   NetAccess arbitration — on real sockets. *)
let host_roundtrip ?prefs model =
  let grid = Padico.create ?prefs ~backend:Padico.Host () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore (Padico.add_segment grid model [ a; b ]);
  let got = ref "" in
  let accepted = ref "none" in
  Padico.listen grid b ~port:4000 (fun vl ->
      accepted := Vlink.Vl.driver_name vl;
      ignore
        (Padico.spawn grid b ~name:"server" (fun () ->
             let buf = Bb.create 64 in
             match Vlink.Vl.await (Vlink.Vl.post_read vl buf) with
             | Vlink.Vl.Done n ->
               got := Bb.to_string (Bb.sub buf 0 n);
               ignore
                 (Vlink.Vl.await
                    (Vlink.Vl.post_write vl (Bb.of_string "pong")));
               Vlink.Vl.close vl
             | _ -> Vlink.Vl.close vl)));
  let reply = ref "" in
  let vl = Padico.connect grid ~src:a ~dst:b ~port:4000 in
  ignore
    (Padico.spawn grid a ~name:"client" (fun () ->
         (match Vlink.Vl.await_connected vl with
          | Ok () -> ()
          | Error m -> Alcotest.failf "connect failed: %s" m);
         ignore (Vlink.Vl.await (Vlink.Vl.post_write vl (Bb.of_string "ping")));
         let buf = Bb.create 64 in
         (match Vlink.Vl.await (Vlink.Vl.post_read vl buf) with
          | Vlink.Vl.Done n -> reply := Bb.to_string (Bb.sub buf 0 n)
          | _ -> ());
         Vlink.Vl.close vl));
  Padico.run grid ~until:(Time.sec 30);
  Tutil.check_string "server got" "ping" !got;
  Tutil.check_string "client reply" "pong" !reply;
  Tutil.check_string "both ends stack the same filters"
    (Vlink.Vl.driver_name vl) !accepted

let test_host_backend_roundtrip () = host_roundtrip Simnet.Presets.ethernet100

(* The selector's VRP choice has no host transport and lands on the SysIO
   listener, which ciphers the untrusted link: the remapped connector
   must cipher too. *)
let test_host_remap_stacks_listener_filters () =
  host_roundtrip
    ~prefs:{ Selector.Prefs.default with Selector.Prefs.vrp_on_lossy = true }
    (Simnet.Presets.transcontinental_loss 0.0)

(* A fault-plan "link down" must kill the real sockets riding that
   segment: the host conns subscribe to segment link state and reset. *)
let test_host_link_down () =
  let grid = Padico.create ~backend:Padico.Host () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore
    (Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ]);
  ignore
    (Padico_fault.Inject.apply (Padico.net grid)
       [ { Padico_fault.Plan.at_ns = Time.ms 50;
           action = Padico_fault.Plan.Link_down "lan" } ]);
  let server_failed = ref false and client_failed = ref false in
  Padico.listen grid b ~port:4100 (fun vl ->
      Vlink.Vl.on_event vl (function
        | Vlink.Vl.Failed _ -> server_failed := true
        | _ -> ()));
  let vl = Padico.connect grid ~src:a ~dst:b ~port:4100 in
  Vlink.Vl.on_event vl (function
    | Vlink.Vl.Failed _ -> client_failed := true
    | _ -> ());
  Padico.run grid ~until:(Time.sec 5);
  check_bool "client saw link death" true !client_failed;
  check_bool "server saw link death" true !server_failed

(* Host connections reach the receipt loop the way simulated ones do:
   watching registers exactly one readiness source on the node's
   dispatcher, a burst of writes echoes back byte-exact through those
   sources, and unwatching returns the source count to where it was. *)
let test_host_readiness_source () =
  let module Sysio = Netaccess.Sysio in
  let module Na = Netaccess.Na_core in
  let module Tcp = Drivers.Tcp in
  let grid = Padico.create ~backend:Padico.Host () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  let seg = Padico.add_segment grid Simnet.Presets.ethernet100 [ a; b ] in
  let sio_a = Sysio.get a and sio_b = Sysio.get b in
  let core_a = Na.get a and core_b = Na.get b in
  let st_a = Sysio.stack_on sio_a seg and st_b = Sysio.stack_on sio_b seg in
  let chunks = 32 and chunk = 512 in
  let sent = Bb.create (chunks * chunk) in
  for i = 0 to Bb.length sent - 1 do
    Bb.set sent i (Char.chr ((i * 7 + i / 251) land 0xff))
  done;
  let server_before = ref (-1) and server_watched = ref (-1) in
  let server_after = ref (-1) in
  Sysio.listen sio_b st_b ~port:4200 (fun conn ->
      server_before := Na.source_count core_b;
      let finished = ref false in
      let finish () =
        if not !finished then begin
          finished := true;
          Sysio.unwatch sio_b conn;
          server_after := Na.source_count core_b;
          Sysio.close conn
        end
      in
      let echo () =
        match Sysio.read conn ~max:max_int with
        | Some buf ->
          check_int "echo accepted whole" (Bb.length buf)
            (Sysio.write conn buf)
        | None -> ()
      in
      Sysio.watch sio_b conn (function
        | Tcp.Readable -> echo ()
        | Tcp.Peer_closed | Tcp.Reset -> finish ()
        | Tcp.Established | Tcp.Writable -> ());
      server_watched := Na.source_count core_b;
      echo ();
      if Sysio.peer_closed conn then finish ());
  let client_before = Na.source_count core_a in
  let got = Buffer.create (Bb.length sent) in
  let client_after = ref (-1) in
  let conn =
    Sysio.connect sio_a st_a ~dst:(Simnet.Node.id b) ~port:4200
      (fun conn -> function
         | Tcp.Established ->
           for k = 0 to chunks - 1 do
             check_int "burst write accepted" chunk
               (Sysio.write conn (Bb.sub sent (k * chunk) chunk))
           done
         | Tcp.Readable ->
           (match Sysio.read conn ~max:max_int with
            | Some buf -> Buffer.add_string got (Bb.to_string buf)
            | None -> ());
           if Buffer.length got = Bb.length sent then begin
             Sysio.unwatch sio_a conn;
             client_after := Na.source_count core_a;
             Sysio.close conn
           end
         | Tcp.Writable | Tcp.Peer_closed | Tcp.Reset -> ())
  in
  check_int "connect registers one source" (client_before + 1)
    (Na.source_count core_a);
  ignore conn;
  Padico.run grid ~until:(Time.sec 10);
  check_int "watch registers one source" (!server_before + 1)
    !server_watched;
  check_bool "echo byte-exact" true
    (String.equal (Bb.to_string sent) (Buffer.contents got));
  check_int "client unwatch releases its source" client_before !client_after;
  check_int "server unwatch releases its source" !server_before
    !server_after

(* A Circuit burst far past the send buffer and the kernel's socket
   buffers: Circuit's SysIO adapter fills the stream's send buffer
   exactly (never a short write), so the stream must still announce
   [Writable] when that space reopens, or the rest of the burst waits
   forever. *)
let test_host_circuit_burst () =
  let module Ct = Circuit.Ct in
  let grid = Padico.create ~backend:Padico.Host () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore (Padico.add_segment grid Simnet.Presets.ethernet100 [ a; b ]);
  let cts = Padico.circuit grid ~name:"burst" [ a; b ] in
  Tutil.check_string "link uses sysio" "sysio"
    (Ct.link_adapter_name cts.(0) ~dst:1);
  let msgs = 64 and size = 262_144 in
  let loop = Option.get (Loop.of_clock (Simnet.Node.clock a)) in
  let got = ref 0 and bytes = ref 0 in
  Ct.set_recv cts.(1) (fun inc ->
      incr got;
      bytes := !bytes + Ct.remaining inc;
      if !got = msgs then Loop.stop loop);
  for _ = 1 to msgs do
    let out = Ct.begin_packing cts.(0) ~dst:1 in
    Ct.pack out (Bb.create size);
    Ct.end_packing out
  done;
  Padico.run grid ~until:(Time.sec 20);
  check_int "every message" msgs !got;
  check_int "every byte" (msgs * size) !bytes

(* A reset closes the host listeners: a dial to the OS port a grid's
   listener was bound to is refused afterwards, instead of queueing on a
   socket nothing will ever accept from. *)
let test_reset_closes_listeners () =
  let module Sysio = Netaccess.Sysio in
  let grid = Padico.create ~backend:Padico.Host () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  let seg = Padico.add_segment grid Simnet.Presets.ethernet100 [ a; b ] in
  let sio = Sysio.get b in
  let st = Sysio.stack_on sio seg in
  Sysio.listen sio st ~port:4300 (fun conn -> Sysio.close conn);
  let port =
    match Sysio.host_listener_port st ~port:4300 with
    | Some p -> p
    | None -> Alcotest.fail "no host listener on the logical port"
  in
  Padico.reset ();
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let refused =
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> false
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> true
  in
  Unix.close fd;
  check_bool "dial to the old listener refused" true refused

(* A group's operation deadline is disarmed when the operation completes:
   on the wall clock a pending timer keeps the reactor alive, so an idle
   group must leave none behind. Three barriers on four ranks would leave
   twelve 4 s timers if completion did not cancel them. *)
let test_host_group_deadline_disarmed () =
  let module Group = Collectives.Group in
  let module Gridgen = Scenario.Gridgen in
  let g =
    Gridgen.generate ~backend:Padico.Host ~clusters:2 ~nodes_per_cluster:2 ()
  in
  let grid = g.Gridgen.grid in
  let members =
    Group.create ~deadline_ns:(Time.sec 4) grid ~name:"host-deadline"
      g.Gridgen.nodes
  in
  let loop =
    Option.get (Loop.of_clock (Simnet.Node.clock (List.hd g.Gridgen.nodes)))
  in
  let finished = ref 0 and live = ref (-1) in
  List.iteri
    (fun r node ->
       ignore
         (Padico.spawn grid node ~name:(Printf.sprintf "rank%d" r) (fun () ->
              for _ = 1 to 3 do
                Group.barrier members.(r)
              done;
              incr finished;
              (* read once the last completion's own events have run *)
              if !finished = 4 then
                Clock.after (Simnet.Node.clock node) (Time.ms 20) (fun () ->
                    live := Loop.live_timers loop;
                    Loop.stop loop))))
    g.Gridgen.nodes;
  Padico.run grid ~until:(Time.sec 10);
  check_int "every rank finished" 4 !finished;
  check_int "no deadline outlives its barrier" 0 !live

(* The conformance kit's host subset: the same obligations the simulated
   adapters satisfy, green over real Unix sockets. *)
let test_host_conformance_kit () =
  List.iter
    (fun c ->
       try c.Padico_check.Conform.run ~plan:None Engine.Sim.Fifo
       with Padico_check.Conform.Failed m ->
         Alcotest.failf "%s: %s" c.Padico_check.Conform.case_name m)
    (Padico_check.Conform.host_cases ())

let () =
  Alcotest.run "hostio"
    [ ( "loop",
        [ Alcotest.test_case "timer firing order" `Quick test_timer_order;
          Alcotest.test_case "timer monotonicity bounds" `Quick
            test_timer_monotonicity;
          Alcotest.test_case "timer cancel + quiesce" `Quick test_timer_cancel;
          Alcotest.test_case "green threads on the host clock" `Quick
            test_proc_on_host_clock ] );
      ( "stream",
        [ Alcotest.test_case "socketpair echo round-trip" `Quick
            test_pair_echo;
          Alcotest.test_case "real TCP echo round-trip" `Quick test_tcp_echo;
          Alcotest.test_case "graceful close delivers FIN" `Quick
            test_graceful_close;
          Alcotest.test_case "abort delivers RST" `Quick test_abort_rst ] );
      ( "buffers",
        [ Alcotest.test_case "writes and reads across the ring's wrap" `Quick
            test_ring_wrap;
          Alcotest.test_case "short write and EAGAIN keep every byte" `Quick
            test_short_write_keeps_bytes;
          Alcotest.test_case "rx pauses at the cap, resumes at half" `Quick
            test_rx_pause_resume;
          Alcotest.test_case "header coalesces across two reads" `Quick
            test_header_coalesces;
          Alcotest.test_case "buffers released at teardown" `Quick
            test_buffers_released;
          QCheck_alcotest.to_alcotest prop_txring_model ] );
      ( "backend",
        [ Alcotest.test_case "Padico round-trip on host" `Quick
            test_host_backend_roundtrip;
          Alcotest.test_case "remapped choice stacks the listener's filters"
            `Quick test_host_remap_stacks_listener_filters;
          Alcotest.test_case "link-down resets host sockets" `Quick
            test_host_link_down;
          Alcotest.test_case "watched connection owns one readiness source"
            `Quick test_host_readiness_source;
          Alcotest.test_case "circuit burst past the send buffer" `Quick
            test_host_circuit_burst;
          Alcotest.test_case "reset closes host listeners" `Quick
            test_reset_closes_listeners;
          Alcotest.test_case "group deadline disarmed at completion" `Quick
            test_host_group_deadline_disarmed;
          Alcotest.test_case "conformance kit host subset" `Slow
            test_host_conformance_kit ] ) ]

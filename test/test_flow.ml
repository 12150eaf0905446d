(* Flow control and overload protection (PR 3): bounded Streamq +
   watermarks, bounded Proc.Mailbox, Na_core admission control, MadIO
   credits, Vl EAGAIN semantics, Resilient windows, and QCheck properties
   over random producer/consumer rate schedules.

   The per-adapter timeout/peer-death matrices that used to live here are
   now obligations in the conformance kit (lib/check/conform.ml), which
   states them once and runs them against every adapter under every
   schedule policy — see test_check.ml and `padico_cli check`. *)

module Bb = Engine.Bytebuf
module Time = Engine.Time
module Proc = Engine.Proc
module Vl = Vlink.Vl
module Streamq = Vlink.Streamq
module Na_core = Netaccess.Na_core
module Madio = Netaccess.Madio
module Vio = Personalities.Vio

open Tutil

(* ---------- a bounded, synchronous in-memory pipe ----------

   Each direction holds at most [cap] unread bytes; a write is accepted
   only up to the free space (partial counts, 0 = full) and the peer's
   reads reopen it with a [Writable] event. No wire time: refusal and
   resumption are exact, which makes backpressure tests deterministic. *)

let bounded_pipe node ~cap =
  let sim = Simnet.Node.sim node in
  let rx_a = Streamq.create () and rx_b = Streamq.create () in
  let va_cell = ref None and vb_cell = ref None in
  let closed_a = ref false and closed_b = ref false in
  (* Deliver events asynchronously, as real drivers do: a synchronous
     notify from inside o_read/o_write would re-enter the peer's request
     pump and recurse. *)
  let notify cell ev =
    Engine.Sim.after sim 0 (fun () ->
        match !cell with Some vl -> Vl.notify vl ev | None -> ())
  in
  let mk name my_rx peer_rx my_closed peer_closed my_cell peer_cell =
    { Vl.o_write =
        (fun buf ->
           if !my_closed || !peer_closed then 0
           else begin
             let space = cap - Streamq.length peer_rx in
             let n = min (Bb.length buf) space in
             if n > 0 then begin
               Streamq.push peer_rx (Bb.copy (Bb.sub buf 0 n));
               notify peer_cell Vl.Readable
             end;
             n
           end);
      o_read =
        (fun ~max ->
           let r = Streamq.pop my_rx ~max in
           (* Space reopened on the peer's send side. *)
           if r <> None then notify peer_cell Vl.Writable;
           r);
      o_readable = (fun () -> Streamq.length my_rx);
      o_write_space =
        (fun () ->
           if !my_closed || !peer_closed then 0
           else cap - Streamq.length peer_rx);
      o_close =
        (fun () ->
           if not !my_closed then begin
             my_closed := true;
             notify peer_cell Vl.Peer_closed;
             notify my_cell Vl.Peer_closed
           end);
      o_driver = name }
  in
  let va =
    Vl.create_connected node
      (mk "pipe-a" rx_a rx_b closed_a closed_b va_cell vb_cell)
  in
  let vb =
    Vl.create_connected node
      (mk "pipe-b" rx_b rx_a closed_b closed_a vb_cell va_cell)
  in
  va_cell := Some va;
  vb_cell := Some vb;
  (va, vb)

(* ---------- Streamq ---------- *)

let test_pop_exact_spans_chunks () =
  let q = Streamq.create () in
  Streamq.push q (Bb.of_string "abc");
  Streamq.push q (Bb.of_string "defgh");
  Streamq.push q (Bb.of_string "ijklmno");
  check_string "crosses first boundary" "abcdef"
    (Bb.to_string (Streamq.pop_exact q 6));
  check_string "crosses second boundary" "ghijk"
    (Bb.to_string (Streamq.pop_exact q 5));
  check_string "rest" "lmno" (Bb.to_string (Streamq.pop_exact q 4));
  check_int "drained" 0 (Streamq.length q)

let test_zero_length_pushes () =
  let q = Streamq.create () in
  Streamq.push q (Bb.create 0);
  check_int "empty push ignored" 0 (Streamq.length q);
  check_bool "still empty" true (Streamq.is_empty q);
  Streamq.push q (Bb.of_string "xy");
  Streamq.push q (Bb.create 0);
  Streamq.push q (Bb.of_string "z");
  check_string "zero-length pushes are transparent" "xyz"
    (Bb.to_string (Streamq.pop_exact q 3))

let test_pop_edge_cases () =
  let q = Streamq.create () in
  Streamq.push q (Bb.of_string "data");
  check_bool "pop ~max:0 returns None" true (Streamq.pop q ~max:0 = None);
  check_int "nothing consumed" 4 (Streamq.length q);
  check_int "pop_exact 0 is empty" 0 (Bb.length (Streamq.pop_exact q 0));
  Alcotest.check_raises "pop_exact negative"
    (Invalid_argument "Streamq.pop_exact: negative length") (fun () ->
      ignore (Streamq.pop_exact q (-1)));
  Alcotest.check_raises "pop_exact underflow"
    (Invalid_argument "Streamq.pop_exact: not enough bytes") (fun () ->
      ignore (Streamq.pop_exact q 5))

let test_watermarks () =
  let q = Streamq.create ~high:10 ~low:4 () in
  check_bool "empty is writable" true (Streamq.writable q);
  check_bool "empty below low" true (Streamq.below_low q);
  Streamq.push q (Bb.create 10);
  check_bool "at high" true (Streamq.above_high q);
  check_bool "not writable at high" false (Streamq.writable q);
  check_bool "not below low" false (Streamq.below_low q);
  ignore (Streamq.pop_exact q 6);
  check_bool "drained below low" true (Streamq.below_low q);
  check_bool "writable again" true (Streamq.writable q);
  check_int "peak remembered" 10 (Streamq.peak q);
  Alcotest.check_raises "bad watermarks"
    (Invalid_argument "Streamq.create: need 0 <= low <= high") (fun () ->
      ignore (Streamq.create ~high:4 ~low:5 ()))

(* ---------- Proc.Mailbox capacity ---------- *)

let test_mailbox_capacity () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let mb = Proc.Mailbox.create ~capacity:2 () in
  let order = ref [] in
  let producer =
    Simnet.Node.spawn a (fun () ->
        for i = 1 to 6 do
          Proc.Mailbox.send mb i;
          order := `Sent i :: !order
        done)
  in
  let consumer =
    Simnet.Node.spawn a (fun () ->
        for _ = 1 to 6 do
          let v = Proc.Mailbox.recv mb in
          order := `Got v :: !order;
          Proc.sleep (Simnet.Node.sim a) (Time.us 10)
        done)
  in
  run_net net;
  assert_done producer;
  assert_done consumer;
  check_int "peak bounded by capacity" 2 (Proc.Mailbox.peak mb);
  let got = List.filter_map (function `Got v -> Some v | _ -> None)
      (List.rev !order) in
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5; 6 ] got;
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Mailbox.create: capacity < 1") (fun () ->
      ignore (Proc.Mailbox.create ~capacity:0 ()))

(* ---------- Na_core admission control ---------- *)

let test_admission_shed () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let core = Na_core.get a in
  Na_core.set_admission core Na_core.Sysio_work ~high:2;
  let ran = ref [] in
  (* Posted work is always admitted, even past the high watermark... *)
  for i = 1 to 3 do
    Na_core.post core Na_core.Sysio_work (fun () -> ran := i :: !ran)
  done;
  (* ...while droppable work is shed outright at the watermark. *)
  let admitted =
    Na_core.post_droppable core Na_core.Sysio_work (fun () ->
        ran := 1000 :: !ran)
  in
  check_bool "shed" false admitted;
  check_int "shed counted" 1 (Na_core.shed_count core Na_core.Sysio_work);
  run_net net;
  Alcotest.(check (list int)) "shed work never ran" [ 1; 2; 3 ]
    (List.rev !ran);
  check_bool "peak >= high" true
    (Na_core.queue_peak core Na_core.Sysio_work >= 2);
  (* Once the queue drains below the watermark, droppable work is
     admitted again. *)
  check_bool "admitted below the watermark" true
    (Na_core.post_droppable core Na_core.Sysio_work (fun () ->
         ran := 4 :: !ran));
  run_net net;
  Alcotest.(check (list int)) "admitted work ran" [ 1; 2; 3; 4 ]
    (List.rev !ran);
  check_int "still one shed" 1 (Na_core.shed_count core Na_core.Sysio_work);
  Alcotest.check_raises "high < 1"
    (Invalid_argument "Na_core.set_admission: need high >= 1") (fun () ->
      Na_core.set_admission core Na_core.Sysio_work ~high:0)

(* ---------- Vl EAGAIN semantics ---------- *)

let test_nonblock_write_again () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let va, vb = bounded_pipe a ~cap:8 in
  let h =
    Simnet.Node.spawn a (fun () ->
        (* Fill the pipe exactly. *)
        (match Vl.await (Vl.post_write ~nonblock:true va (Bb.create 8)) with
         | Vl.Done n -> check_int "filled" 8 n
         | _ -> Alcotest.fail "first write should fit");
        check_int "no space left" 0 (Vl.write_space va);
        (* Nonblock write against a full pipe: Again, nothing queued. *)
        (match Vl.await (Vl.post_write ~nonblock:true va (Bb.create 4)) with
         | Vl.Again -> ()
         | _ -> Alcotest.fail "expected Again");
        (* Park on writability; the reader drains; the hook fires; the
           retry succeeds. *)
        let fired = ref false in
        Vl.on_writable va (fun () -> fired := true);
        check_bool "not writable yet" false !fired;
        (match Vl.await (Vl.post_read vb (Bb.create 8)) with
         | Vl.Done 8 -> ()
         | _ -> Alcotest.fail "drain failed");
        check_bool "hook fired on drain" true !fired;
        match Vl.await (Vl.post_write ~nonblock:true va (Bb.create 4)) with
        | Vl.Done 4 -> ()
        | _ -> Alcotest.fail "retry should succeed")
  in
  run_net net;
  assert_done h

let test_on_writable_while_connecting () =
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let vl = Vl.create a in
  (* Nonblock write on a connecting link: Again, not queued. *)
  (match Vl.poll (Vl.post_write ~nonblock:true vl (Bb.create 4)) with
   | Some Vl.Again -> ()
   | _ -> Alcotest.fail "connecting => Again");
  let fired = ref false in
  Vl.on_writable vl (fun () -> fired := true);
  check_bool "parked while connecting" false !fired;
  let va, _vb = bounded_pipe a ~cap:64 in
  ignore va;
  Vl.attach_ops vl
    { Vl.o_write = (fun b -> Bb.length b);
      o_read = (fun ~max:_ -> None); o_readable = (fun () -> 0);
      o_write_space = (fun () -> 64); o_close = (fun () -> ());
      o_driver = "stub" };
  check_bool "fires on connect" true !fired

let test_blocking_writer_completes () =
  (* A blocking post_write bigger than the pipe waits for the reader and
     completes — the baseline no-livelock guarantee. *)
  let net = Simnet.Net.create () in
  let a = Simnet.Net.add_node net "a" in
  let va, vb = bounded_pipe a ~cap:16 in
  let writer =
    Simnet.Node.spawn a (fun () ->
        match Vl.await (Vl.post_write va (Bb.create 100)) with
        | Vl.Done 100 -> ()
        | _ -> Alcotest.fail "blocking write must complete fully")
  in
  let reader =
    Simnet.Node.spawn a (fun () ->
        let got = ref 0 in
        let buf = Bb.create 16 in
        while !got < 100 do
          (match Vl.await (Vl.post_read vb buf) with
           | Vl.Done n -> got := !got + n
           | _ -> Alcotest.fail "read failed");
          Proc.sleep (Simnet.Node.sim a) (Time.us 5)
        done)
  in
  run_net net;
  assert_done writer;
  assert_done reader

(* ---------- MadIO credits ---------- *)

let madio_pair () =
  let net, a, b, seg = pair Simnet.Presets.myrinet2000 in
  let ma = Madio.init (Madeleine.Mad.init seg a) in
  let mb = Madio.init (Madeleine.Mad.init seg b) in
  (net, a, b, ma, mb)

let test_credit_soft_enforcement () =
  let net, a, b, ma, mb = madio_pair () in
  Madio.set_credit_window ma 4096;
  Madio.set_credit_window mb 4096;
  let la = Madio.open_lchannel ma ~id:7 in
  let lb = Madio.open_lchannel mb ~id:7 in
  let got = ref 0 in
  Madio.set_recv lb (fun ~src:_ msg -> got := !got + Bb.length msg);
  let h =
    Simnet.Node.spawn a (fun () ->
        check_int "window is the initial space" 4096
          (Madio.send_space la ~dst:(Simnet.Node.id b));
        (* Two back-to-back 3 KiB sends against a 4 KiB window: the
           second overcommits — soft enforcement lets it through and
           counts a stall instead of blocking (control must flow). *)
        Madio.send la ~dst:(Simnet.Node.id b) (Bb.create 3072);
        Madio.send la ~dst:(Simnet.Node.id b) (Bb.create 3072))
  in
  run_net net;
  assert_done h;
  check_int "both delivered" 6144 !got;
  check_bool "overcommit counted as stall" true (Madio.credit_stalls ma >= 1);
  check_bool "space recovered after grants" true
    (Madio.send_space la ~dst:(Simnet.Node.id b) > 0)

let test_credit_only_message_one_way () =
  (* A pure one-way flow has no reverse traffic to piggyback grants on:
     the receiver must emit explicit credit-only messages (at half
     window), or the sender runs dry forever. *)
  let net, a, b, ma, mb = madio_pair () in
  Madio.set_credit_window ma 8192;
  Madio.set_credit_window mb 8192;
  let la = Madio.open_lchannel ma ~id:9 in
  let lb = Madio.open_lchannel mb ~id:9 in
  let got = ref 0 in
  Madio.set_recv lb (fun ~src:_ msg -> got := !got + Bb.length msg);
  let total = 64 * 1024 in
  let h =
    Simnet.Node.spawn a (fun () ->
        let sent = ref 0 in
        while !sent < total do
          let n = min 2048 (Madio.send_space la ~dst:(Simnet.Node.id b)) in
          if n > 0 then begin
            Madio.send la ~dst:(Simnet.Node.id b) (Bb.create n);
            sent := !sent + n
          end
          else
            Proc.suspend (fun resume ->
                Madio.on_credit la ~dst:(Simnet.Node.id b) resume)
        done)
  in
  run_net net;
  assert_done h;
  check_int "all delivered" total !got;
  check_bool "no stalls for a polite sender" true (Madio.credit_stalls ma = 0);
  check_bool "credit-only messages flowed" true (Madio.credit_messages mb >= 1)

let test_vl_madio_credit_bounded () =
  let grid, a, b, san = grid_pair Simnet.Presets.myrinet2000 in
  let window = 32 * 1024 in
  Madio.set_credit_window (Padico.madio grid a san) window;
  Madio.set_credit_window (Padico.madio grid b san) window;
  let total = 256 * 1024 in
  let received = ref 0 in
  let intact = ref true in
  Padico.listen grid b ~port:4100 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"sink" (fun () ->
             let buf = Bb.create 8192 in
             let expect = ref 0 in
             while !received < total do
               match Vl.await (Vl.post_read vl buf) with
               | Vl.Done n ->
                 for i = 0 to n - 1 do
                   if Bb.get_u8 buf i <> (!expect + i) land 0xff then
                     intact := false
                 done;
                 expect := !expect + n;
                 received := !received + n;
                 (* Slow consumer: backpressure reaches the sender through
                    the credit window. *)
                 Proc.sleep (Simnet.Node.sim b) (Time.us 50)
               | _ -> Alcotest.fail "sink read failed"
             done)));
  let h =
    Padico.spawn grid a ~name:"src" (fun () ->
        let vl = Padico.connect grid ~src:a ~dst:b ~port:4100 in
        (match Vio.connect_wait vl with
         | Ok () -> ()
         | Error e -> failwith e);
        check_string "SAN picked madio" "madio" (Vl.driver_name vl);
        check_bool "write space bounded by credits" true
          (Vl.write_space vl <= window);
        let sent = ref 0 in
        while !sent < total do
          let n = min 8192 (total - !sent) in
          let chunk = Bb.create n in
          for i = 0 to n - 1 do Bb.set_u8 chunk i ((!sent + i) land 0xff) done;
          match Vio.try_write vl chunk with
          | `Ok k -> sent := !sent + k
          | `Again -> Vio.wait_writable vl
        done)
  in
  run_grid grid;
  assert_done h;
  check_int "all bytes through the credit window" total !received;
  check_bool "stream intact" true !intact

(* ---------- Resilient windows ---------- *)

let resilient_slow_consumer ~config ~total ~fault () =
  let grid = Padico.create () in
  let a = Padico.add_node grid "a" in
  let b = Padico.add_node grid "b" in
  ignore
    (Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san" [ a; b ]);
  ignore
    (Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan" [ a; b ]);
  if fault then
    ignore
      (Padico_fault.Inject.apply (Padico.net grid)
         [ { Padico_fault.Plan.at_ns = Time.ms 2;
             action = Padico_fault.Plan.Link_down "san" } ]);
  Resilient.listen ~config grid b ~port:4200 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"producer" (fun () ->
             let sent = ref 0 in
             while !sent < total do
               let n = min 16_384 (total - !sent) in
               match Vio.try_write vl (Bb.create n) with
               | `Ok k -> sent := !sent + k
               | `Again -> Vio.wait_writable vl
             done)));
  let conn = Resilient.connect ~config grid ~src:a ~dst:b ~port:4200 in
  let cvl = Resilient.vl conn in
  let h =
    Padico.spawn grid a ~name:"consumer" (fun () ->
        (match Vl.await_connected cvl with
         | Ok () -> ()
         | Error m -> failwith ("connect: " ^ m));
        let buf = Bb.create 16_384 in
        let received = ref 0 in
        while !received < total do
          (match Vl.await (Vl.post_read cvl buf) with
           | Vl.Done n -> received := !received + n
           | Vl.Eof | Vl.Again -> failwith "premature eof"
           | Vl.Error m -> failwith ("read: " ^ m));
          if !received < total then
            Proc.sleep (Simnet.Node.sim a) (Time.us 500)
        done)
  in
  run_grid grid;
  assert_done h;
  Resilient.stats conn

let frame_slack = 65_536

let test_resilient_bounded_memory () =
  let total = 512 * 1024 in
  let rx_high = 64 * 1024 in
  let bounded =
    { Resilient.default_config with
      Resilient.tx_window = 128 * 1024; rx_high; rx_low = rx_high / 4 }
  in
  let unbounded =
    { Resilient.default_config with
      Resilient.tx_window = max_int; rx_high = max_int; rx_low = max_int }
  in
  let bst = resilient_slow_consumer ~config:bounded ~total ~fault:false () in
  check_bool "rx peak pinned at the watermark" true
    (bst.Resilient.rx_peak <= rx_high + frame_slack);
  check_bool "tx peak bounded by the window" true
    (bst.Resilient.tx_peak <= 128 * 1024);
  (* Without bounds the queue grows with the transfer: double the bytes,
     (roughly) double the peak. *)
  let u1 = resilient_slow_consumer ~config:unbounded ~total ~fault:false () in
  let u2 =
    resilient_slow_consumer ~config:unbounded ~total:(2 * total) ~fault:false
      ()
  in
  check_bool "unbounded dwarfs bounded" true
    (u1.Resilient.rx_peak > 2 * bst.Resilient.rx_peak);
  check_bool "unbounded grows with the transfer" true
    (u2.Resilient.rx_peak > u1.Resilient.rx_peak + total / 2)

let test_resilient_flow_fault_compose () =
  (* Backpressure engaged while the SAN dies mid-transfer: failover must
     still complete — the pause state is per-link and the new link starts
     fresh, so flow control cannot deadlock the redial. *)
  let rx_high = 64 * 1024 in
  let config =
    { Resilient.default_config with
      Resilient.tx_window = 128 * 1024; rx_high; rx_low = rx_high / 4 }
  in
  let st =
    resilient_slow_consumer ~config ~total:(512 * 1024) ~fault:true ()
  in
  check_bool "failed over" true (st.Resilient.switches >= 1);
  check_string "ended on the LAN" "sysio" st.Resilient.driver;
  check_bool "still bounded across the switch" true
    (st.Resilient.rx_peak <= rx_high + frame_slack)

(* ---------- QCheck properties ---------- *)

(* Random producer/consumer rate schedules over a small bounded pipe with
   a filter adapter on top, AdOC or the cipher (watermarks engaged; the
   4 KB pipe is where a silly-window writer could stall): no byte is lost
   or reordered, and every writer — blocking or EAGAIN-style — completes. *)
let prop_no_loss_no_reorder =
  QCheck.Test.make ~name:"random rate schedules: no loss, no reorder"
    ~count:12
    QCheck.(triple (int_bound 100_000) bool bool)
    (fun (seed, nonblock_writer, adoc) ->
      let rng = Random.State.make [| seed; 0x5eed |] in
      let total = 2_000 + Random.State.int rng 30_000 in
      let net = Simnet.Net.create () in
      let a = Simnet.Net.add_node net "a" in
      let pa, pb = bounded_pipe a ~cap:4096 in
      let codec () =
        if adoc then Vlink.Vl_filter.adoc ~link_bandwidth_bps:56e3
        else Vlink.Vl_filter.cipher ~key:(Methods.Crypto.key_of_string "prop")
      in
      let wa = Vlink.Vl_filter.wrap ~rx_high:2048 (codec ()) pa in
      let wb = Vlink.Vl_filter.wrap ~rx_high:2048 (codec ()) pb in
      let writer =
        Simnet.Node.spawn a (fun () ->
            let sent = ref 0 in
            while !sent < total do
              let n = 1 + Random.State.int rng 3000 in
              let n = min n (total - !sent) in
              let chunk = Bb.create n in
              for i = 0 to n - 1 do
                Bb.set_u8 chunk i ((!sent + i) land 0xff)
              done;
              if nonblock_writer then begin
                match Vio.try_write wa chunk with
                | `Ok k -> sent := !sent + k
                | `Again -> Vio.wait_writable wa
              end
              else begin
                match Vl.await (Vl.post_write wa chunk) with
                | Vl.Done k -> sent := !sent + k
                | _ -> failwith "writer: unexpected completion"
              end;
              if Random.State.int rng 4 = 0 then
                Proc.sleep (Simnet.Node.sim a)
                  (Random.State.int rng (Time.us 40))
            done)
      in
      let holes = ref false in
      let reader =
        Simnet.Node.spawn a (fun () ->
            let got = ref 0 in
            let buf = Bb.create 4096 in
            while !got < total do
              (match Vl.await (Vl.post_read wb buf) with
               | Vl.Done n ->
                 for i = 0 to n - 1 do
                   if Bb.get_u8 buf i <> (!got + i) land 0xff then
                     holes := true
                 done;
                 got := !got + n
               | _ -> failwith "reader: unexpected completion");
              if Random.State.int rng 3 = 0 then
                Proc.sleep (Simnet.Node.sim a)
                  (Random.State.int rng (Time.us 120))
            done)
      in
      run_net net;
      (* Both sides completed (no livelock) and the byte stream is exact. *)
      (match Proc.result writer with
       | Some (Ok ()) -> ()
       | _ -> QCheck.Test.fail_report "writer did not complete");
      (match Proc.result reader with
       | Some (Ok ()) -> ()
       | _ -> QCheck.Test.fail_report "reader did not complete");
      not !holes)

let () =
  Alcotest.run "flow"
    [ ( "streamq",
        [ Alcotest.test_case "pop_exact spans chunks" `Quick
            test_pop_exact_spans_chunks;
          Alcotest.test_case "zero-length pushes" `Quick
            test_zero_length_pushes;
          Alcotest.test_case "pop edge cases" `Quick test_pop_edge_cases;
          Alcotest.test_case "watermarks" `Quick test_watermarks ] );
      ( "mailbox",
        [ Alcotest.test_case "capacity bounds + order" `Quick
            test_mailbox_capacity ] );
      ( "admission",
        [ Alcotest.test_case "shed at the high watermark" `Quick
            test_admission_shed ] );
      ( "vl-eagain",
        [ Alcotest.test_case "nonblock Again + on_writable" `Quick
            test_nonblock_write_again;
          Alcotest.test_case "on_writable while connecting" `Quick
            test_on_writable_while_connecting;
          Alcotest.test_case "blocking writer completes" `Quick
            test_blocking_writer_completes ] );
      ( "madio-credit",
        [ Alcotest.test_case "soft enforcement + stalls" `Quick
            test_credit_soft_enforcement;
          Alcotest.test_case "credit-only for one-way flows" `Quick
            test_credit_only_message_one_way;
          Alcotest.test_case "vl_madio bounded end-to-end" `Quick
            test_vl_madio_credit_bounded ] );
      ( "resilient-window",
        [ Alcotest.test_case "bounded vs unbounded memory" `Quick
            test_resilient_bounded_memory;
          Alcotest.test_case "composes with failover" `Quick
            test_resilient_flow_fault_compose ] );
      Tutil.qsuite "properties" [ prop_no_loss_no_reorder ] ]

module Bytebuf = Engine.Bytebuf
module Sim = Engine.Sim
module Timewheel = Padico_fault.Timewheel

let log = Logs.Src.create "drivers.tcp"

module Log = (val Logs.src_log log : Logs.LOG)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool }

let plain_ack = { syn = false; ack = true; fin = false; rst = false }

type wire_seg = {
  sport : int;
  dport : int;
  seq : int;
  ackno : int;
  flags : flags;
  wnd : int;
  payload : Bytebuf.t;
}

type Simnet.Packet.content += Tcp_seg of wire_seg

type event = Established | Readable | Writable | Peer_closed | Reset

type state =
  | Syn_sent
  | Syn_received
  | Established_st
  | Fin_wait
  | Close_wait
  | Closed_st

let header_bytes = 40

let default_bufsize = 262_144

let min_rto = 200_000_000 (* 200 ms *)

let max_rto = 60_000_000_000

let initial_rto = 1_000_000_000

(* Loss-recovery and byte counters, allocated on first use: a connection
   that never moves data or loses a segment shares [no_counters], which is
   never written. *)
type counters = {
  mutable rto_events : int;
  mutable fast_events : int;
  mutable partial_events : int;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
}

let no_counters =
  { rto_events = 0; fast_events = 0; partial_events = 0; tx_bytes = 0;
    rx_bytes = 0 }

module Conn_tbl = Hashtbl.Make (Int)

type conn = {
  stack : stack;
  lport : int;
  rnode : int;
  rport : int;
  mutable st : state;
  (* --- send side --- *)
  (* Sequence-addressed ring of [sndbuf_cap] bytes holding [snd_una, wseq)
     at [seq mod sndbuf_cap]. It exists only while that range is non-empty:
     taken from the Bytebuf.Pool size class by [write], returned once
     everything written is acknowledged, [no_ring] in between. *)
  mutable sndring : Bytes.t;
  sndbuf_cap : int;
  mutable snd_una : int; (* oldest unacknowledged sequence *)
  mutable snd_nxt : int; (* next sequence to transmit *)
  mutable wseq : int; (* next sequence the application will write *)
  mutable fin_pending : bool;
  mutable fin_seq : int; (* sequence consumed by our FIN, -1 if none *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable rwnd : int; (* peer-advertised window *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rto : int;
  mutable rtt_seq : int option;
  mutable rtt_time : int;
  mutable timer_gen : int;
  mutable timer_armed : bool;
  mutable syn_attempts : int;
  mutable strikes : int; (* consecutive RTO firings without ACK progress *)
  mutable persist_armed : bool;
  (* --- receive side --- *)
  mutable rcv_nxt : int;
  (* Both start as shared empty sentinels and are replaced by a fresh
     container on the first insert. *)
  mutable ooo : (int, Bytebuf.t) Hashtbl.t;
  mutable rcvq : Bytebuf.t Queue.t;
  mutable rcvq_len : int;
  mutable ooo_len : int;
  rcvbuf_cap : int;
  mutable last_wnd_sent : int;
  mutable peer_fin : int option; (* sequence of the peer's FIN *)
  mutable peer_closed_delivered : bool;
  (* --- app interface --- *)
  mutable cb : event -> unit;
  mutable ctrs : counters;
}

and listener = { l_accept : conn -> unit; l_sndbuf : int; l_rcvbuf : int }

and stack = {
  seg : Simnet.Segment.t;
  snode : Simnet.Node.t;
  conns : conn Conn_tbl.t; (* keyed by [conn_key] *)
  listeners : (int, listener) Hashtbl.t;
  mutable next_ephemeral : int;
  wheel : Timewheel.t; (* the node clock's shared wheel: RTO and persist *)
  mutable reaped : int; (* fully-closed conns removed from [conns] *)
}

let stacks : (int * int, stack) Hashtbl.t = Hashtbl.create 16

(* Find-or-create can run mid-run on any worker shard of a parallel
   simulation; the registry table needs a lock even though each created
   instance stays owner-shard. *)
let registry_lock = Mutex.create ()

let () =
  Engine.Lifecycle.on_reset (fun () ->
      Mutex.protect registry_lock (fun () -> Hashtbl.reset stacks))

(* [stack.conns] key: (lport, rnode, rport) packed into one immediate int.
   Ports take [port_bits] bits each and node ids the remaining top bits,
   so the packing is injective; [listen], [connect] and [attach] reject
   values that do not fit. *)
let port_bits = 24
let max_port = (1 lsl port_bits) - 1
let max_node = (1 lsl (Sys.int_size - (2 * port_bits))) - 1

let conn_key ~lport ~rnode ~rport =
  (rnode lsl (2 * port_bits)) lor (lport lsl port_bits) lor rport

let check_port fn port =
  if port < 0 || port > max_port then
    invalid_arg
      (Printf.sprintf "Tcp.%s: port %d outside [0, %d]" fn port max_port)

(* Active opens take local ports from this range, wrapping around. *)
let ephemeral_lo = 32_768
let ephemeral_hi = 60_999

(* Shared, never-mutated stand-ins for per-connection state that does not
   exist yet (see the [conn] fields). *)
let no_ring = Bytes.empty
let no_ooo : (int, Bytebuf.t) Hashtbl.t = Hashtbl.create 1
let no_rcvq : Bytebuf.t Queue.t = Queue.create ()

let node s = s.snode
let segment s = s.seg
let mss s = (Simnet.Segment.model s.seg).Simnet.Linkmodel.mtu - header_bytes
let state c = c.st
let conn_node c = c.stack.snode
let peer c = (c.rnode, c.rport)
let local_port c = c.lport
let set_event_cb c cb = c.cb <- cb
let peer_closed c = c.peer_closed_delivered
let cwnd c = c.cwnd
let ssthresh c = c.ssthresh
let srtt_ns c = int_of_float c.srtt
let retransmits c =
  c.ctrs.rto_events + c.ctrs.fast_events + c.ctrs.partial_events
let retransmit_breakdown c =
  (c.ctrs.rto_events, c.ctrs.fast_events, c.ctrs.partial_events)
let bytes_sent c = c.ctrs.tx_bytes
let bytes_received c = c.ctrs.rx_bytes

let counters c =
  if c.ctrs == no_counters then
    c.ctrs <-
      { rto_events = 0; fast_events = 0; partial_events = 0; tx_bytes = 0;
        rx_bytes = 0 };
  c.ctrs

(* RTT samples read the stack's own node clock: a segment may span shards,
   and only the local shard's clock is this connection's time. *)
let sim c = Simnet.Node.sim c.stack.snode

(* Per-connection timers (RTO, persist probes) go on the node's slotted
   timewheel: 100k armed retransmit timers cost one engine event per
   occupied slot instead of one each, and fire at most one slot late. *)
let tcp_after c ns f = ignore (Timewheel.arm c.stack.wheel ~after_ns:ns f)

(* Send rings cycle through the size-classed slab pool: taken by [write],
   returned when the last written byte is acknowledged and on close. *)
let ring_write c ~seq (src : Bytebuf.t) ~src_off ~len =
  if c.sndring == no_ring then
    c.sndring <- Bytebuf.Pool.alloc_bytes c.sndbuf_cap;
  for i = 0 to len - 1 do
    Bytes.set c.sndring ((seq + i) mod c.sndbuf_cap)
      (Bytebuf.get src (src_off + i))
  done

(* Bytes below [snd_una] are acknowledged and no longer in the ring (it may
   have been returned and taken again since); a go-back-N rewind re-sends
   them only as duplicates the peer discards, so they go out as zeros. *)
let ring_read c ~seq ~len =
  let out = Bytebuf.create len in
  for i = max 0 (c.snd_una - seq) to len - 1 do
    Bytebuf.set out i (Bytes.get c.sndring ((seq + i) mod c.sndbuf_cap))
  done;
  out

let release_ring c =
  if c.sndring != no_ring then begin
    Bytebuf.Pool.release_bytes c.sndring;
    c.sndring <- no_ring
  end

(* Advertised window counts only undelivered in-order data (as in BSD: the
   reassembly queue is not charged against the socket buffer until
   delivered). Charging out-of-order data would make every duplicate ACK
   carry a different window, defeating fast retransmit. *)
let rcv_window c =
  let w = c.rcvbuf_cap - c.rcvq_len in
  if w < 0 then 0 else w

(* Transmit one segment: charge the host CPU, then hand to the NIC. *)
let emit stack ~dst ~(content : Simnet.Packet.content) ~paylen =
  let cost =
    Calib.tcp_send_seg_ns
    + int_of_float (Calib.tcp_per_byte_ns *. float_of_int paylen)
  in
  Simnet.Node.cpu_async stack.snode cost (fun () ->
      Simnet.Segment.send stack.seg
        (Simnet.Packet.make ~src:(Simnet.Node.id stack.snode) ~dst
           ~proto:Simnet.Packet.Proto.tcp ~size:(paylen + header_bytes)
           content))

let send_seg c ?(flags = plain_ack) ~seq payload =
  let paylen = Bytebuf.length payload in
  c.last_wnd_sent <- rcv_window c;
  emit c.stack ~dst:c.rnode ~paylen
    ~content:
      (Tcp_seg
         { sport = c.lport; dport = c.rport; seq; ackno = c.rcv_nxt; flags;
           wnd = c.last_wnd_sent; payload })

let send_rst stack ~dst ~sport ~dport ~seq ~ackno =
  emit stack ~dst ~paylen:0
    ~content:
      (Tcp_seg
         { sport; dport; seq; ackno;
           flags = { syn = false; ack = true; fin = false; rst = true };
           wnd = 0; payload = Bytebuf.create 0 })

let send_pure_ack c = send_seg c ~seq:c.snd_nxt (Bytebuf.create 0)

let outstanding c = c.snd_nxt > c.snd_una

let cancel_timer c =
  c.timer_gen <- c.timer_gen + 1;
  c.timer_armed <- false

(* Fully-closed connections leave the stack's table; a late segment for a
   reaped connection is answered with RST, like any segment to a port
   with no connection. *)
let reap_conn c =
  if c.st = Closed_st then begin
    cancel_timer c;
    release_ring c;
    let key = conn_key ~lport:c.lport ~rnode:c.rnode ~rport:c.rport in
    match Conn_tbl.find_opt c.stack.conns key with
    | Some c' when c' == c ->
      Conn_tbl.remove c.stack.conns key;
      c.stack.reaped <- c.stack.reaped + 1
    | Some _ | None -> ()
  end

let rec arm_timer c =
  if (not c.timer_armed) && c.st <> Closed_st && outstanding c then begin
    c.timer_armed <- true;
    c.timer_gen <- c.timer_gen + 1;
    let gen = c.timer_gen in
    tcp_after c c.rto (fun () ->
        if gen = c.timer_gen && c.st <> Closed_st then begin
          c.timer_armed <- false;
          if outstanding c then on_timeout c
        end)
  end

and on_timeout c =
  (* RTO: multiplicative backoff, window collapse, go-back-N. *)
  let flight = c.snd_nxt - c.snd_una in
  let m = mss c.stack in
  c.ssthresh <- max (flight / 2) (2 * m);
  c.cwnd <- m;
  c.dupacks <- 0;
  c.in_recovery <- false;
  c.rto <- min (c.rto * 2) max_rto;
  c.rtt_seq <- None;
  let k = counters c in
  k.rto_events <- k.rto_events + 1;
  Log.debug (fun l ->
      l "%s:%d rto fire una=%d nxt=%d rto=%dms"
        (Simnet.Node.name c.stack.snode)
        c.lport c.snd_una c.snd_nxt (c.rto / 1_000_000));
  (match c.st with
   | Syn_sent ->
     c.syn_attempts <- c.syn_attempts + 1;
     if c.syn_attempts >= 5 then begin
       (* Give up like ETIMEDOUT: the peer has no reachable TCP service. *)
       c.st <- Closed_st;
       cancel_timer c;
       c.cb Reset;
       reap_conn c
     end
     else
       send_seg c ~flags:{ syn = true; ack = false; fin = false; rst = false }
         ~seq:c.snd_una (Bytebuf.create 0)
   | Syn_received ->
     c.syn_attempts <- c.syn_attempts + 1;
     if c.syn_attempts >= 5 then begin
       (* Give up on a half-open passive connection whose dialer vanished
          mid-handshake (its RST was lost) — otherwise the SYN-ACK
          retransmits forever and the listener leaks the slot. The
          connection was never accepted, so there is no callback to
          fire. *)
       c.st <- Closed_st;
       cancel_timer c;
       reap_conn c
     end
     else
       send_seg c ~flags:{ syn = true; ack = true; fin = false; rst = false }
         ~seq:c.snd_una (Bytebuf.create 0)
   | Established_st | Fin_wait | Close_wait ->
     c.strikes <- c.strikes + 1;
     if c.strikes >= 10 then begin
       (* ETIMEDOUT after 10 consecutive unanswered retransmissions — the
          peer is gone (reset lost, host vanished). Surface it as a reset
          so the watcher tears the connection down. *)
       c.st <- Closed_st;
       cancel_timer c;
       c.cb Reset;
       reap_conn c
     end
     else begin
       c.snd_nxt <- c.snd_una;
       try_output c
     end
   | Closed_st -> ());
  arm_timer c

(* Send as much as the congestion and flow-control windows allow. *)
and try_output c =
  match c.st with
  | Syn_sent | Syn_received | Closed_st -> ()
  | Established_st | Fin_wait | Close_wait ->
    let m = mss c.stack in
    let continue = ref true in
    while !continue do
      continue := false;
      let usable = c.snd_una + min c.cwnd c.rwnd - c.snd_nxt in
      let pending = c.wseq - c.snd_nxt in
      if pending > 0 && usable > 0 then begin
        let len = min (min m pending) usable in
        let payload = ring_read c ~seq:c.snd_nxt ~len in
        (* One RTT sample in flight at a time (Karn: only new data). *)
        if c.rtt_seq = None then begin
          c.rtt_seq <- Some (c.snd_nxt + len);
          c.rtt_time <- Sim.now (sim c)
        end;
        send_seg c ~seq:c.snd_nxt payload;
        c.snd_nxt <- c.snd_nxt + len;
        let k = counters c in
        k.tx_bytes <- k.tx_bytes + len;
        continue := true
      end
      else if pending > 0 && c.rwnd = 0 && usable <= 0 && not c.persist_armed
      then begin
        (* Zero-window probe. *)
        c.persist_armed <- true;
        tcp_after c c.rto (fun () ->
            c.persist_armed <- false;
            if c.st <> Closed_st && c.rwnd = 0 && c.wseq > c.snd_nxt then begin
              let payload = ring_read c ~seq:c.snd_nxt ~len:1 in
              send_seg c ~seq:c.snd_nxt payload;
              c.snd_nxt <- c.snd_nxt + 1;
              arm_timer c
            end)
      end
    done;
    (* FIN once everything written has been transmitted (also re-sent after
       go-back-N rewinds snd_nxt). *)
    if c.fin_pending && c.wseq = c.snd_nxt
       && (c.fin_seq < 0 || c.fin_seq = c.snd_nxt) then begin
      c.fin_seq <- c.snd_nxt;
      send_seg c ~flags:{ syn = false; ack = true; fin = true; rst = false }
        ~seq:c.snd_nxt (Bytebuf.create 0);
      c.snd_nxt <- c.snd_nxt + 1
    end;
    arm_timer c

let make_conn stack ~lport ~rnode ~rport ~st ~sndbuf ~rcvbuf =
  (* The SYN occupies sequence 0; application data starts at 1. *)
  let handshake = st = Syn_sent || st = Syn_received in
  let c =
    { stack; lport; rnode; rport; st;
      sndring = no_ring; sndbuf_cap = sndbuf;
      snd_una = (if handshake then 0 else 1);
      snd_nxt = 1; wseq = 1; fin_pending = false; fin_seq = -1;
      cwnd = 2 * mss stack; ssthresh = 1 lsl 30;
      rwnd = default_bufsize; dupacks = 0; in_recovery = false; recover = 0;
      srtt = 0.0; rttvar = 0.0; rto = initial_rto; rtt_seq = None;
      rtt_time = 0; timer_gen = 0; timer_armed = false; syn_attempts = 0;
      strikes = 0; persist_armed = false;
      rcv_nxt = 1; ooo = no_ooo; rcvq = no_rcvq;
      rcvq_len = 0; ooo_len = 0; rcvbuf_cap = rcvbuf; last_wnd_sent = rcvbuf;
      peer_fin = None; peer_closed_delivered = false;
      cb = (fun _ -> ()); ctrs = no_counters }
  in
  Conn_tbl.replace stack.conns (conn_key ~lport ~rnode ~rport) c;
  c

let update_rtt c =
  match c.rtt_seq with
  | Some s when c.snd_una >= s ->
    c.rtt_seq <- None;
    let sample = float_of_int (Sim.now (sim c) - c.rtt_time) in
    if c.srtt = 0.0 then begin
      c.srtt <- sample;
      c.rttvar <- sample /. 2.0
    end
    else begin
      c.rttvar <- (0.75 *. c.rttvar) +. (0.25 *. Float.abs (c.srtt -. sample));
      c.srtt <- (0.875 *. c.srtt) +. (0.125 *. sample)
    end;
    let rto =
      int_of_float (c.srtt +. Float.max 10_000_000.0 (4.0 *. c.rttvar))
    in
    c.rto <- min (max rto min_rto) max_rto
  | _ -> ()

let deliver_data c (data : Bytebuf.t) =
  if c.rcvq == no_rcvq then c.rcvq <- Queue.create ();
  Queue.push data c.rcvq;
  c.rcvq_len <- c.rcvq_len + Bytebuf.length data;
  let k = counters c in
  k.rx_bytes <- k.rx_bytes + Bytebuf.length data

(* Pull contiguous data out of the out-of-order store. *)
let drain_ooo c =
  let progress = ref (Hashtbl.length c.ooo > 0) in
  while !progress do
    progress := false;
    Hashtbl.iter
      (fun seq data ->
         if not !progress then begin
           let len = Bytebuf.length data in
           if seq + len <= c.rcv_nxt then begin
             Hashtbl.remove c.ooo seq;
             c.ooo_len <- c.ooo_len - len;
             progress := true
           end
           else if seq <= c.rcv_nxt then begin
             Hashtbl.remove c.ooo seq;
             c.ooo_len <- c.ooo_len - len;
             let keep =
               Bytebuf.sub data (c.rcv_nxt - seq) (seq + len - c.rcv_nxt)
             in
             deliver_data c keep;
             c.rcv_nxt <- seq + len;
             progress := true
           end
         end)
      c.ooo
  done

let enter_close_states c =
  let our_fin_acked = c.fin_seq >= 0 && c.snd_una > c.fin_seq in
  match (c.peer_fin, our_fin_acked) with
  | Some fin_seq, true when c.rcv_nxt > fin_seq ->
    c.st <- Closed_st;
    reap_conn c
  | Some _, _ -> if c.st = Established_st then c.st <- Close_wait
  | None, _ -> if c.fin_pending && c.st = Established_st then c.st <- Fin_wait

let handle_ack c ~ackno ~wnd ~paylen =
  let old_rwnd = c.rwnd in
  c.rwnd <- wnd;
  if ackno > c.snd_una then begin
    let acked = ackno - c.snd_una in
    c.snd_una <- ackno;
    if c.snd_una >= c.wseq then release_ring c;
    c.strikes <- 0;
    update_rtt c;
    let m = mss c.stack in
    if c.in_recovery && ackno >= c.recover then begin
      c.in_recovery <- false;
      c.cwnd <- c.ssthresh;
      c.dupacks <- 0
    end
    else if c.in_recovery then begin
      (* NewReno partial ack: retransmit the next hole, deflate. *)
      let len = min m (c.wseq - c.snd_una) in
      if len > 0 then begin
        let payload = ring_read c ~seq:c.snd_una ~len in
        send_seg c ~seq:c.snd_una payload;
        let k = counters c in
        k.partial_events <- k.partial_events + 1;
        Log.debug (fun l ->
            l "partial ack=%d una=%d recover=%d nxt=%d" ackno c.snd_una
              c.recover c.snd_nxt)
      end;
      c.cwnd <- max m (c.cwnd - acked + m)
    end
    else begin
      c.dupacks <- 0;
      if c.cwnd < c.ssthresh then c.cwnd <- c.cwnd + min acked m
      else c.cwnd <- c.cwnd + max 1 (m * m / c.cwnd)
    end;
    cancel_timer c;
    arm_timer c;
    try_output c;
    enter_close_states c;
    if c.wseq - c.snd_una < c.sndbuf_cap then c.cb Writable
  end
  else if ackno = c.snd_una && outstanding c && paylen = 0 && wnd = old_rwnd
  then begin
    (* A true duplicate ACK: same ack number, empty, window unchanged —
       pure window updates must not trigger fast retransmit. *)
    c.dupacks <- c.dupacks + 1;
    let m = mss c.stack in
    if c.dupacks = 3 && not c.in_recovery then begin
      (* Fast retransmit + fast recovery. *)
      let flight = c.snd_nxt - c.snd_una in
      c.ssthresh <- max (flight / 2) (2 * m);
      c.in_recovery <- true;
      c.recover <- c.snd_nxt;
      let k = counters c in
      k.fast_events <- k.fast_events + 1;
      Log.debug (fun l ->
          l "fastrx una=%d nxt=%d cwnd=%d" c.snd_una c.snd_nxt c.cwnd);
      c.rtt_seq <- None;
      let len = min m (c.wseq - c.snd_una) in
      if len > 0 then begin
        let payload = ring_read c ~seq:c.snd_una ~len in
        send_seg c ~seq:c.snd_una payload
      end
      else if c.fin_seq = c.snd_una then
        send_seg c ~flags:{ syn = false; ack = true; fin = true; rst = false }
          ~seq:c.snd_una (Bytebuf.create 0);
      c.cwnd <- c.ssthresh + (3 * m)
    end
    else if c.in_recovery then begin
      c.cwnd <- c.cwnd + m;
      try_output c
    end
  end;
  (* A pure window update must restart a sender stalled on flow control. *)
  if wnd > old_rwnd then try_output c

let deliver_peer_closed c =
  enter_close_states c;
  if not c.peer_closed_delivered then begin
    c.peer_closed_delivered <- true;
    c.cb Peer_closed
  end

let rec handle_conn_segment c (seg : wire_seg) =
  if seg.flags.rst then begin
    if c.st <> Closed_st then begin
      c.st <- Closed_st;
      cancel_timer c;
      c.cb Reset;
      reap_conn c
    end
  end
  else
    match c.st with
    | Syn_sent when seg.flags.syn && seg.flags.ack && seg.ackno = c.snd_nxt ->
      c.snd_una <- seg.ackno;
      c.rcv_nxt <- seg.seq + 1;
      c.rwnd <- seg.wnd;
      c.st <- Established_st;
      c.rto <- initial_rto;
      cancel_timer c;
      send_pure_ack c;
      c.cb Established;
      try_output c
    | Syn_sent -> ()
    | Syn_received when seg.flags.ack && seg.ackno = c.snd_nxt ->
      c.snd_una <- seg.ackno;
      c.rwnd <- seg.wnd;
      c.st <- Established_st;
      c.rto <- initial_rto;
      cancel_timer c;
      c.cb Established;
      (* The handshake ACK may carry data: reprocess through the data path. *)
      if Bytebuf.length seg.payload > 0 || seg.flags.fin then
        handle_conn_segment c seg
    | Syn_received -> ()
    | Closed_st -> ()
    | Established_st | Fin_wait | Close_wait ->
      let paylen = Bytebuf.length seg.payload in
      if seg.flags.ack then handle_ack c ~ackno:seg.ackno ~wnd:seg.wnd ~paylen;
      if paylen > 0 then begin
        let seq = seg.seq in
        let had_new = ref false in
        if seq + paylen <= c.rcv_nxt then () (* pure duplicate *)
        else if seq <= c.rcv_nxt then begin
          let fresh =
            Bytebuf.sub seg.payload (c.rcv_nxt - seq)
              (seq + paylen - c.rcv_nxt)
          in
          deliver_data c fresh;
          c.rcv_nxt <- seq + paylen;
          drain_ooo c;
          had_new := true
        end
        else if not (Hashtbl.mem c.ooo seq) then begin
          if c.ooo == no_ooo then c.ooo <- Hashtbl.create 8;
          Hashtbl.replace c.ooo seq seg.payload;
          c.ooo_len <- c.ooo_len + paylen
        end;
        (* Immediate ACK: in-order data acknowledges progress, anything else
           produces a duplicate ACK for fast retransmit. *)
        send_pure_ack c;
        if !had_new then c.cb Readable
      end;
      (match seg.flags.fin, c.peer_fin with
       | true, None -> c.peer_fin <- Some (seg.seq + paylen)
       | _ -> ());
      (match c.peer_fin with
       | Some fin_seq when c.rcv_nxt = fin_seq ->
         c.rcv_nxt <- fin_seq + 1;
         send_pure_ack c;
         deliver_peer_closed c
       | Some _ when seg.flags.fin -> send_pure_ack c
       | _ -> ())

let handle_segment stack (pkt : Simnet.Packet.t) (seg : wire_seg) =
  let key =
    conn_key ~lport:seg.dport ~rnode:pkt.Simnet.Packet.src ~rport:seg.sport
  in
  match Conn_tbl.find_opt stack.conns key with
  | Some c -> handle_conn_segment c seg
  | None ->
    if seg.flags.rst then ()
    else if seg.flags.syn && not seg.flags.ack then begin
      match Hashtbl.find_opt stack.listeners seg.dport with
      | Some l ->
        let c =
          make_conn stack ~lport:seg.dport ~rnode:pkt.Simnet.Packet.src
            ~rport:seg.sport ~st:Syn_received ~sndbuf:l.l_sndbuf
            ~rcvbuf:l.l_rcvbuf
        in
        c.rcv_nxt <- seg.seq + 1;
        c.rwnd <- seg.wnd;
        (* Remember the acceptor; fired when reaching Established. *)
        c.cb <- (fun ev -> if ev = Established then l.l_accept c);
        send_seg c ~flags:{ syn = true; ack = true; fin = false; rst = false }
          ~seq:0 (Bytebuf.create 0);
        arm_timer c
      | None ->
        send_rst stack ~dst:pkt.Simnet.Packet.src ~sport:seg.dport
          ~dport:seg.sport ~seq:0 ~ackno:(seg.seq + 1)
    end
    else
      send_rst stack ~dst:pkt.Simnet.Packet.src ~sport:seg.dport
        ~dport:seg.sport ~seq:seg.ackno ~ackno:(seg.seq + 1)

let handle_packet stack (pkt : Simnet.Packet.t) =
  match pkt.Simnet.Packet.content with
  | Tcp_seg seg ->
    let paylen = Bytebuf.length seg.payload in
    let cost =
      Calib.tcp_recv_seg_ns
      + int_of_float (Calib.tcp_per_byte_ns *. float_of_int paylen)
    in
    Simnet.Node.cpu_async stack.snode cost (fun () ->
        handle_segment stack pkt seg)
  | _ -> ()

let attach seg node =
  let key = (Simnet.Segment.uid seg, Simnet.Node.id node) in
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt stacks key with
      | Some s -> s
      | None ->
        if Simnet.Node.id node > max_node then
          invalid_arg
            (Printf.sprintf "Tcp.attach: node id %d above %d"
               (Simnet.Node.id node) max_node);
        let s =
          { seg; snode = node; conns = Conn_tbl.create 16;
            listeners = Hashtbl.create 8; next_ephemeral = ephemeral_lo;
            wheel = Timewheel.for_clock (Simnet.Node.clock node); reaped = 0 }
        in
        Simnet.Segment.set_handler seg node ~proto:Simnet.Packet.Proto.tcp
          (handle_packet s);
        Hashtbl.replace stacks key s;
        s)

let listen ?(sndbuf = default_bufsize) ?(rcvbuf = default_bufsize) stack ~port
    cb =
  check_port "listen" port;
  if Hashtbl.mem stack.listeners port then
    invalid_arg (Printf.sprintf "Tcp.listen: port %d already bound" port);
  Hashtbl.replace stack.listeners port
    { l_accept = cb; l_sndbuf = sndbuf; l_rcvbuf = rcvbuf }

let unlisten stack ~port = Hashtbl.remove stack.listeners port

(* Next free local port in the ephemeral range: a port is in use towards
   (dst, port) while its connection key is still in the table. *)
let ephemeral_port stack ~dst ~port =
  let rec pick tries =
    if tries > ephemeral_hi - ephemeral_lo then
      failwith
        (Printf.sprintf "Tcp.connect: every ephemeral port to %d:%d is in use"
           dst port);
    let p = stack.next_ephemeral in
    stack.next_ephemeral <- (if p = ephemeral_hi then ephemeral_lo else p + 1);
    if Conn_tbl.mem stack.conns (conn_key ~lport:p ~rnode:dst ~rport:port)
    then pick (tries + 1)
    else p
  in
  pick 0

let connect ?(sndbuf = default_bufsize) ?(rcvbuf = default_bufsize) stack ~dst
    ~port =
  check_port "connect" port;
  let lport = ephemeral_port stack ~dst ~port in
  let c =
    make_conn stack ~lport ~rnode:dst ~rport:port ~st:Syn_sent ~sndbuf ~rcvbuf
  in
  send_seg c ~flags:{ syn = true; ack = false; fin = false; rst = false }
    ~seq:0 (Bytebuf.create 0);
  arm_timer c;
  c

let write c (buf : Bytebuf.t) =
  match c.st with
  | Closed_st -> invalid_arg "Tcp.write: connection closed"
  | Syn_sent | Syn_received | Established_st | Fin_wait | Close_wait ->
    if c.fin_pending then invalid_arg "Tcp.write: already shut down";
    let space = c.sndbuf_cap - (c.wseq - c.snd_una) in
    let n = min space (Bytebuf.length buf) in
    if n > 0 then begin
      ring_write c ~seq:c.wseq buf ~src_off:0 ~len:n;
      c.wseq <- c.wseq + n;
      try_output c
    end;
    n

let write_space c = c.sndbuf_cap - (c.wseq - c.snd_una)

let readable_bytes c = c.rcvq_len

let read c ~max =
  if c.rcvq_len = 0 || max <= 0 then None
  else begin
    let parts = ref [] in
    let taken = ref 0 in
    while !taken < max && not (Queue.is_empty c.rcvq) do
      let chunk = Queue.peek c.rcvq in
      let len = Bytebuf.length chunk in
      if !taken + len <= max then begin
        ignore (Queue.pop c.rcvq);
        parts := chunk :: !parts;
        taken := !taken + len
      end
      else begin
        let want = max - !taken in
        let head = Bytebuf.sub chunk 0 want in
        let tail = Bytebuf.sub chunk want (len - want) in
        ignore (Queue.pop c.rcvq);
        (* Put the remainder back in front. *)
        let rest = Queue.create () in
        Queue.push tail rest;
        Queue.transfer c.rcvq rest;
        Queue.transfer rest c.rcvq;
        parts := head :: !parts;
        taken := max
      end
    done;
    c.rcvq_len <- c.rcvq_len - !taken;
    (* Window update once enough space reopened. *)
    (match c.st with
     | Established_st | Fin_wait ->
       let w = rcv_window c in
       if w - c.last_wnd_sent >= mss c.stack then send_pure_ack c
     | Syn_sent | Syn_received | Close_wait | Closed_st -> ());
    match !parts with
    | [ one ] -> Some one
    | parts -> Some (Bytebuf.concat (List.rev parts))
  end

let close c =
  match c.st with
  | Closed_st -> ()
  | Syn_sent ->
    c.st <- Closed_st;
    cancel_timer c;
    release_ring c;
    Conn_tbl.remove c.stack.conns
      (conn_key ~lport:c.lport ~rnode:c.rnode ~rport:c.rport)
  | Syn_received | Established_st | Fin_wait | Close_wait ->
    if not c.fin_pending then begin
      c.fin_pending <- true;
      try_output c;
      enter_close_states c
    end

let abort c =
  if c.st <> Closed_st then begin
    send_rst c.stack ~dst:c.rnode ~sport:c.lport ~dport:c.rport ~seq:c.snd_nxt
      ~ackno:c.rcv_nxt;
    c.st <- Closed_st;
    cancel_timer c;
    release_ring c;
    Conn_tbl.remove c.stack.conns
      (conn_key ~lport:c.lport ~rnode:c.rnode ~rport:c.rport)
  end

(* ---------- accounting ---------- *)

let reaped stack = stack.reaped

let conn_count stack = Conn_tbl.length stack.conns

(* Heap retained by one idle established connection end on a 64-bit
   runtime: the record, its table slot and, when SysIO watches it, the
   readiness source and closures around it (82 words measured). Not an
   estimate but a tested bound: test_edge fails when the live-heap growth
   of 10k idle connections, after a full major GC, exceeds this many bytes
   per connection end. *)
let conn_overhead_bytes = 96 * 8

let conn_resident_bytes c =
  conn_overhead_bytes
  + Bytes.length c.sndring
  + c.rcvq_len + c.ooo_len

let resident_bytes stack =
  Conn_tbl.fold (fun _ c acc -> acc + conn_resident_bytes c) stack.conns 0

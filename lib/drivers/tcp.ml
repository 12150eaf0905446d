module Bytebuf = Engine.Bytebuf
module Sim = Engine.Sim
module Clock = Engine.Clock

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

(* Shared, never-mutated stand-ins for per-connection state that does not
   exist yet (see the [conn] and [counters] fields). *)
let no_ring = Bytes.empty
let no_ooo : (int, Bytebuf.t) Hashtbl.t = Hashtbl.create 1
let no_rcvq : Bytebuf.t Queue.t = Queue.create ()

(* Loss recovery, RTT estimation, reassembly and byte counters, allocated
   on first use: a connection that never moves data or loses a segment (an
   idle one) shares [no_counters], which is never written. A field is read
   through [c.ctrs] and written through [counters c], unless its value
   shows that the block is already the connection's own. *)
type counters = {
  mutable rto_events : int;
  mutable fast_events : int;
  mutable partial_events : int;
  mutable tx_bytes : int;
  mutable rx_bytes : int;
  mutable srtt : float;
  mutable rttvar : float;
  mutable rtt_seq : int; (* ACK that ends the RTT sample in flight, or -1 *)
  mutable rtt_time : int;
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable retx_at : int; (* when the hole at [snd_una] was last resent *)
  (* Out-of-order segments by sequence: [no_ooo] until the first insert,
     and again whenever reassembly empties it. *)
  mutable ooo : (int, Bytebuf.t) Hashtbl.t;
  mutable ooo_len : int;
}

let fresh_counters () =
  { rto_events = 0; fast_events = 0; partial_events = 0; tx_bytes = 0;
    rx_bytes = 0; srtt = 0.0; rttvar = 0.0; rtt_seq = -1; rtt_time = 0;
    dupacks = 0; in_recovery = false; recover = 0; retx_at = 0; ooo = no_ooo;
    ooo_len = 0 }

let no_counters = fresh_counters ()

module Conn_tbl = Hashtbl.Make (Int)

type conn = {
  stack : stack;
  key : int; (* [conn_key] of (local port, peer node, peer port) *)
  mutable bits : int; (* state, flags and small counts: see [state] *)
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
  mutable fin_seq : int; (* sequence consumed by our FIN, -1 if none *)
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable rwnd : int; (* peer-advertised window *)
  mutable rto : int;
  mutable timer : Clock.timer; (* armed RTO, or [Clock.none] *)
  (* --- receive side --- *)
  mutable rcv_nxt : int;
  (* [no_rcvq] whenever nothing is buffered. *)
  mutable rcvq : Bytebuf.t Queue.t;
  mutable rcvq_len : int;
  rcvbuf_cap : int;
  mutable last_wnd_sent : int;
  mutable peer_fin : int; (* sequence of the peer's FIN, -1 until seen *)
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
  clk : Clock.t; (* the node's clock: RTO and persist timers *)
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

let lport c = (c.key lsr port_bits) land max_port
let rnode c = c.key lsr (2 * port_bits)
let rport c = c.key land max_port

let check_port fn port =
  if port < 0 || port > max_port then
    invalid_arg
      (Printf.sprintf "Tcp.%s: port %d outside [0, %d]" fn port max_port)

(* Active opens take local ports from this range, wrapping around. *)
let ephemeral_lo = 32_768
let ephemeral_hi = 60_999

(* [conn.bits]: the state's code in the low 3 bits, three flags, then the
   SYN retransmission count (at most 5) and the run of RTO firings without
   ACK progress (at most 10) in 4 bits each. *)
let states =
  [| Syn_sent; Syn_received; Established_st; Fin_wait; Close_wait; Closed_st |]

let state_code = function
  | Syn_sent -> 0
  | Syn_received -> 1
  | Established_st -> 2
  | Fin_wait -> 3
  | Close_wait -> 4
  | Closed_st -> 5

let state_mask = 7
let fin_pending = 8 (* [close] called: FIN once the send buffer drains *)
let persist_armed = 16 (* a zero-window probe is scheduled *)
let peer_closed_delivered = 32
let syn_attempts_shift = 6
let strikes_shift = 10

let state c = states.(c.bits land state_mask)
let set_state c s = c.bits <- c.bits land lnot state_mask lor state_code s
let has c flag = c.bits land flag <> 0
let set_flag c flag = c.bits <- c.bits lor flag
let clear_flag c flag = c.bits <- c.bits land lnot flag

(* Bump a 4-bit count and return its new value. *)
let bump c shift =
  c.bits <- c.bits + (1 lsl shift);
  (c.bits lsr shift) land 15

let node s = s.snode
let segment s = s.seg
let mss s = (Simnet.Segment.model s.seg).Simnet.Linkmodel.mtu - header_bytes
let conn_node c = c.stack.snode
let peer c = (rnode c, rport c)
let local_port c = lport c
let set_event_cb c cb = c.cb <- cb
let peer_closed c = has c peer_closed_delivered
let cwnd c = c.cwnd
let ssthresh c = c.ssthresh
let srtt_ns c = int_of_float c.ctrs.srtt
let retransmits c =
  c.ctrs.rto_events + c.ctrs.fast_events + c.ctrs.partial_events
let retransmit_breakdown c =
  (c.ctrs.rto_events, c.ctrs.fast_events, c.ctrs.partial_events)
let bytes_sent c = c.ctrs.tx_bytes
let bytes_received c = c.ctrs.rx_bytes

let counters c =
  if c.ctrs == no_counters then c.ctrs <- fresh_counters ();
  c.ctrs

(* RTT samples read the stack's own node clock: a segment may span shards,
   and only the local shard's clock is this connection's time. *)
let sim c = Simnet.Node.sim c.stack.snode

(* Send rings cycle through the size-classed slab pool: taken by [writev],
   returned when the last written byte is acknowledged and on close. A
   range of the ring is at most two blits: up to the end, then from 0. *)
let ring_write c ~seq (src : Bytebuf.t) ~len =
  if c.sndring == no_ring then
    c.sndring <- Bytebuf.Pool.alloc_bytes c.sndbuf_cap;
  let pos = seq mod c.sndbuf_cap in
  let first = min len (c.sndbuf_cap - pos) in
  Bytes.blit src.data src.off c.sndring pos first;
  Bytes.blit src.data (src.off + first) c.sndring 0 (len - first)

(* Bytes below [snd_una] are acknowledged and no longer in the ring (it may
   have been returned and taken again since); a go-back-N rewind re-sends
   them only as duplicates the peer discards, so they go out as zeros. *)
let ring_read c ~seq ~len =
  let out = Bytes.create len in
  let skip = min len (max 0 (c.snd_una - seq)) in
  Bytes.fill out 0 skip '\000';
  let n = len - skip in
  if n > 0 then begin
    let pos = (seq + skip) mod c.sndbuf_cap in
    let first = min n (c.sndbuf_cap - pos) in
    Bytes.blit c.sndring pos out skip first;
    Bytes.blit c.sndring 0 out (skip + first) (n - first)
  end;
  Bytebuf.of_bytes out

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
  emit c.stack ~dst:(rnode c) ~paylen
    ~content:
      (Tcp_seg
         { sport = lport c; dport = rport c; seq; ackno = c.rcv_nxt; flags;
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

(* The timer's event leaves the node's queue at once, and with it the
   callback that holds the connection. *)
let cancel_timer c =
  Clock.cancel c.timer;
  c.timer <- Clock.none

(* Fully-closed connections leave the stack's table; a late segment for a
   reaped connection is answered with RST, like any segment to a port
   with no connection. *)
let reap_conn c =
  if state c = Closed_st then begin
    cancel_timer c;
    release_ring c;
    match Conn_tbl.find_opt c.stack.conns c.key with
    | Some c' when c' == c ->
      Conn_tbl.remove c.stack.conns c.key;
      c.stack.reaped <- c.stack.reaped + 1
    | Some _ | None -> ()
  end

let rec arm_timer c =
  if c.timer == Clock.none && state c <> Closed_st && outstanding c then
    c.timer <- Clock.arm c.stack.clk c.rto (fun () -> rto_fired c)

and rto_fired c =
  c.timer <- Clock.none;
  if state c <> Closed_st && outstanding c then on_timeout c

and on_timeout c =
  (* RTO: multiplicative backoff, window collapse, go-back-N. *)
  let flight = c.snd_nxt - c.snd_una in
  let m = mss c.stack in
  let k = counters c in
  c.ssthresh <- max (flight / 2) (2 * m);
  c.cwnd <- m;
  k.dupacks <- 0;
  k.in_recovery <- false;
  c.rto <- min (c.rto * 2) max_rto;
  k.rtt_seq <- -1;
  k.rto_events <- k.rto_events + 1;
  Log.debug (fun l ->
      l "%s:%d rto fire una=%d nxt=%d rto=%dms"
        (Simnet.Node.name c.stack.snode)
        (lport c) c.snd_una c.snd_nxt (c.rto / 1_000_000));
  (match state c with
   | Syn_sent ->
     if bump c syn_attempts_shift >= 5 then begin
       (* Give up like ETIMEDOUT: the peer has no reachable TCP service. *)
       set_state c Closed_st;
       cancel_timer c;
       c.cb Reset;
       reap_conn c
     end
     else
       send_seg c ~flags:{ syn = true; ack = false; fin = false; rst = false }
         ~seq:c.snd_una (Bytebuf.create 0)
   | Syn_received ->
     if bump c syn_attempts_shift >= 5 then begin
       (* Give up on a half-open passive connection whose dialer vanished
          mid-handshake (its RST was lost) — otherwise the SYN-ACK
          retransmits forever and the listener leaks the slot. The
          connection was never accepted, so there is no callback to
          fire. *)
       set_state c Closed_st;
       cancel_timer c;
       reap_conn c
     end
     else
       send_seg c ~flags:{ syn = true; ack = true; fin = false; rst = false }
         ~seq:c.snd_una (Bytebuf.create 0)
   | Established_st | Fin_wait | Close_wait ->
     if bump c strikes_shift >= 10 then begin
       (* ETIMEDOUT after 10 consecutive unanswered retransmissions — the
          peer is gone (reset lost, host vanished). Surface it as a reset
          so the watcher tears the connection down. *)
       set_state c Closed_st;
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
  match state c with
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
        let k = counters c in
        (* One RTT sample in flight at a time (Karn: only new data). *)
        if k.rtt_seq < 0 then begin
          k.rtt_seq <- c.snd_nxt + len;
          k.rtt_time <- Sim.now (sim c)
        end;
        send_seg c ~seq:c.snd_nxt payload;
        c.snd_nxt <- c.snd_nxt + len;
        k.tx_bytes <- k.tx_bytes + len;
        continue := true
      end
      else if pending > 0 && c.rwnd = 0 && usable <= 0
              && not (has c persist_armed)
      then begin
        (* Zero-window probe. *)
        set_flag c persist_armed;
        Clock.after c.stack.clk c.rto (fun () ->
            clear_flag c persist_armed;
            if state c <> Closed_st && c.rwnd = 0 && c.wseq > c.snd_nxt then begin
              let payload = ring_read c ~seq:c.snd_nxt ~len:1 in
              send_seg c ~seq:c.snd_nxt payload;
              c.snd_nxt <- c.snd_nxt + 1;
              arm_timer c
            end)
      end
    done;
    (* FIN once everything written has been transmitted (also re-sent after
       go-back-N rewinds snd_nxt). *)
    if has c fin_pending && c.wseq = c.snd_nxt
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
  let key = conn_key ~lport ~rnode ~rport in
  let c =
    { stack; key; bits = state_code st;
      sndring = no_ring; sndbuf_cap = sndbuf;
      snd_una = (if handshake then 0 else 1);
      snd_nxt = 1; wseq = 1; fin_seq = -1;
      cwnd = 2 * mss stack; ssthresh = 1 lsl 30;
      rwnd = default_bufsize; rto = initial_rto; timer = Clock.none;
      rcv_nxt = 1; rcvq = no_rcvq; rcvq_len = 0; rcvbuf_cap = rcvbuf;
      last_wnd_sent = rcvbuf; peer_fin = -1;
      cb = (fun _ -> ()); ctrs = no_counters }
  in
  Conn_tbl.replace stack.conns key c;
  c

(* Smoothed RTT plus its variance margin: the RTO before its clamps. *)
let rtt_bound c = c.ctrs.srtt +. Float.max 10_000_000.0 (4.0 *. c.ctrs.rttvar)

(* Resend up to one MSS at the hole [snd_una]; false when nothing written
   is left there. *)
let resend_hole c =
  let len = min (mss c.stack) (c.wseq - c.snd_una) in
  if len > 0 then begin
    send_seg c ~seq:c.snd_una (ring_read c ~seq:c.snd_una ~len);
    (counters c).retx_at <- Sim.now (sim c)
  end;
  len > 0

let update_rtt c =
  let k = c.ctrs in
  if k.rtt_seq >= 0 && c.snd_una >= k.rtt_seq then begin
    k.rtt_seq <- -1;
    let sample = float_of_int (Sim.now (sim c) - k.rtt_time) in
    if k.srtt = 0.0 then begin
      k.srtt <- sample;
      k.rttvar <- sample /. 2.0
    end
    else begin
      k.rttvar <- (0.75 *. k.rttvar) +. (0.25 *. Float.abs (k.srtt -. sample));
      k.srtt <- (0.875 *. k.srtt) +. (0.125 *. sample)
    end;
    c.rto <- min (max (int_of_float (rtt_bound c)) min_rto) max_rto
  end

let deliver_data c (data : Bytebuf.t) =
  if c.rcvq == no_rcvq then c.rcvq <- Queue.create ();
  Queue.push data c.rcvq;
  c.rcvq_len <- c.rcvq_len + Bytebuf.length data;
  let k = counters c in
  k.rx_bytes <- k.rx_bytes + Bytebuf.length data

(* Pull contiguous data out of the out-of-order store. *)
let drain_ooo c =
  let k = c.ctrs in
  if Hashtbl.length k.ooo > 0 then begin
    let progress = ref true in
    while !progress do
      progress := false;
      Hashtbl.iter
        (fun seq data ->
           if not !progress then begin
             let len = Bytebuf.length data in
             if seq + len <= c.rcv_nxt then begin
               Hashtbl.remove k.ooo seq;
               k.ooo_len <- k.ooo_len - len;
               progress := true
             end
             else if seq <= c.rcv_nxt then begin
               Hashtbl.remove k.ooo seq;
               k.ooo_len <- k.ooo_len - len;
               let keep =
                 Bytebuf.sub data (c.rcv_nxt - seq) (seq + len - c.rcv_nxt)
               in
               deliver_data c keep;
               c.rcv_nxt <- seq + len;
               progress := true
             end
           end)
        k.ooo
    done;
    if Hashtbl.length k.ooo = 0 then k.ooo <- no_ooo
  end

let enter_close_states c =
  if c.peer_fin >= 0 then begin
    let our_fin_acked = c.fin_seq >= 0 && c.snd_una > c.fin_seq in
    if our_fin_acked && c.rcv_nxt > c.peer_fin then begin
      set_state c Closed_st;
      reap_conn c
    end
    else if state c = Established_st then set_state c Close_wait
  end
  else if has c fin_pending && state c = Established_st then set_state c Fin_wait

let handle_ack c ~ackno ~wnd ~paylen =
  let old_rwnd = c.rwnd in
  c.rwnd <- wnd;
  if ackno > c.snd_una then begin
    let acked = ackno - c.snd_una in
    c.snd_una <- ackno;
    if c.snd_una >= c.wseq then release_ring c;
    c.bits <- c.bits land lnot (15 lsl strikes_shift); (* no strikes *)
    update_rtt c;
    let m = mss c.stack in
    (* [in_recovery] or a non-zero [dupacks] means the block is this
       connection's own. *)
    let k = c.ctrs in
    if k.in_recovery && ackno >= k.recover then begin
      k.in_recovery <- false;
      c.cwnd <- c.ssthresh;
      k.dupacks <- 0
    end
    else if k.in_recovery then begin
      (* NewReno partial ack: retransmit the next hole, deflate. *)
      if resend_hole c then begin
        k.partial_events <- k.partial_events + 1;
        Log.debug (fun l ->
            l "partial ack=%d una=%d recover=%d nxt=%d" ackno c.snd_una
              k.recover c.snd_nxt)
      end;
      c.cwnd <- max m (c.cwnd - acked + m)
    end
    else begin
      if k.dupacks <> 0 then k.dupacks <- 0;
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
    let k = counters c in
    k.dupacks <- k.dupacks + 1;
    let m = mss c.stack in
    if k.dupacks = 3 && not k.in_recovery then begin
      (* Fast retransmit + fast recovery. *)
      let flight = c.snd_nxt - c.snd_una in
      c.ssthresh <- max (flight / 2) (2 * m);
      k.in_recovery <- true;
      k.recover <- c.snd_nxt;
      k.fast_events <- k.fast_events + 1;
      Log.debug (fun l ->
          l "fastrx una=%d nxt=%d cwnd=%d" c.snd_una c.snd_nxt c.cwnd);
      k.rtt_seq <- -1;
      if (not (resend_hole c)) && c.fin_seq = c.snd_una then
        send_seg c ~flags:{ syn = false; ack = true; fin = true; rst = false }
          ~seq:c.snd_una (Bytebuf.create 0);
      c.cwnd <- c.ssthresh + (3 * m)
    end
    else if k.in_recovery then begin
      c.cwnd <- c.cwnd + m;
      (* The link delivers in order and the peer ACKs every segment at
         once, so a duplicate ACK that arrives more than an RTT bound after
         the hole was resent answers a segment sent after it: the resent
         segment was lost too. Resend it now, not at the RTO (200 ms at
         least), which would stall the stream past a heartbeat monitor's
         confirmation horizon. *)
      if float_of_int (Sim.now (sim c) - k.retx_at) > rtt_bound c
         && resend_hole c
      then k.fast_events <- k.fast_events + 1;
      try_output c
    end
  end;
  (* A pure window update must restart a sender stalled on flow control. *)
  if wnd > old_rwnd then try_output c

let deliver_peer_closed c =
  enter_close_states c;
  if not (has c peer_closed_delivered) then begin
    set_flag c peer_closed_delivered;
    c.cb Peer_closed
  end

let rec handle_conn_segment c (seg : wire_seg) =
  if seg.flags.rst then begin
    if state c <> Closed_st then begin
      set_state c Closed_st;
      cancel_timer c;
      c.cb Reset;
      reap_conn c
    end
  end
  else
    match state c with
    | Syn_sent when seg.flags.syn && seg.flags.ack && seg.ackno = c.snd_nxt ->
      c.snd_una <- seg.ackno;
      c.rcv_nxt <- seg.seq + 1;
      c.rwnd <- seg.wnd;
      set_state c Established_st;
      c.rto <- initial_rto;
      cancel_timer c;
      send_pure_ack c;
      c.cb Established;
      try_output c
    | Syn_sent -> ()
    | Syn_received when seg.flags.ack && seg.ackno = c.snd_nxt ->
      c.snd_una <- seg.ackno;
      c.rwnd <- seg.wnd;
      set_state c Established_st;
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
        else if not (Hashtbl.mem c.ctrs.ooo seq) then begin
          let k = counters c in
          if k.ooo == no_ooo then k.ooo <- Hashtbl.create 8;
          Hashtbl.replace k.ooo seq seg.payload;
          k.ooo_len <- k.ooo_len + paylen
        end;
        (* Immediate ACK: in-order data acknowledges progress, anything else
           produces a duplicate ACK for fast retransmit. *)
        send_pure_ack c;
        if !had_new then c.cb Readable
      end;
      if seg.flags.fin && c.peer_fin < 0 then c.peer_fin <- seg.seq + paylen;
      if c.peer_fin >= 0 && c.rcv_nxt = c.peer_fin then begin
        c.rcv_nxt <- c.peer_fin + 1;
        send_pure_ack c;
        deliver_peer_closed c
      end
      else if c.peer_fin >= 0 && seg.flags.fin then send_pure_ack c

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
            clk = Simnet.Node.clock node; reaped = 0 }
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

let write_space c = c.sndbuf_cap - (c.wseq - c.snd_una)

(* Gather-write: every accepted piece is copied into the ring first, then
   one [try_output] cuts segments from the whole run, so pieces smaller
   than an MSS share segments instead of leaving one each. *)
let writev c (bufs : Bytebuf.t list) =
  match state c with
  | Closed_st -> invalid_arg "Tcp.write: connection closed"
  | Syn_sent | Syn_received | Established_st | Fin_wait | Close_wait ->
    if has c fin_pending then invalid_arg "Tcp.write: already shut down";
    let start = c.wseq in
    let rec copy space = function
      | [] -> ()
      | b :: rest ->
        let n = min space (Bytebuf.length b) in
        if n > 0 then begin
          ring_write c ~seq:c.wseq b ~len:n;
          c.wseq <- c.wseq + n
        end;
        if n = Bytebuf.length b then copy (space - n) rest
    in
    copy (write_space c) bufs;
    let n = c.wseq - start in
    if n > 0 then try_output c;
    n

let write c buf = writev c [ buf ]

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
    if c.rcvq_len = 0 then c.rcvq <- no_rcvq;
    (* Window update once enough space reopened. *)
    (match state c with
     | Established_st | Fin_wait ->
       let w = rcv_window c in
       if w - c.last_wnd_sent >= mss c.stack then send_pure_ack c
     | Syn_sent | Syn_received | Close_wait | Closed_st -> ());
    match !parts with
    | [ one ] -> Some one
    | parts -> Some (Bytebuf.concat (List.rev parts))
  end

let close c =
  match state c with
  | Closed_st -> ()
  | Syn_sent ->
    set_state c Closed_st;
    cancel_timer c;
    release_ring c;
    Conn_tbl.remove c.stack.conns c.key
  | Syn_received | Established_st | Fin_wait | Close_wait ->
    if not (has c fin_pending) then begin
      set_flag c fin_pending;
      try_output c;
      enter_close_states c
    end

let abort c =
  if state c <> Closed_st then begin
    send_rst c.stack ~dst:(rnode c) ~sport:(lport c) ~dport:(rport c)
      ~seq:c.snd_nxt ~ackno:c.rcv_nxt;
    set_state c Closed_st;
    cancel_timer c;
    release_ring c;
    Conn_tbl.remove c.stack.conns c.key
  end

(* ---------- accounting ---------- *)

let reaped stack = stack.reaped

let conn_count stack = Conn_tbl.length stack.conns

(* Heap retained by one idle established connection end on a 64-bit
   runtime: the record, its table slot and, when SysIO watches it, the
   SysIO connection, its readiness source and the one closure between
   them (49.3 words measured). Not an estimate but a tested bound:
   test_edge fails when the live-heap growth of 10k idle connections,
   after a full major GC, exceeds this many bytes per connection end. *)
let conn_overhead_bytes = 50 * 8

let conn_resident_bytes c =
  conn_overhead_bytes
  + Bytes.length c.sndring
  + c.rcvq_len + c.ctrs.ooo_len

let resident_bytes stack =
  Conn_tbl.fold (fun _ c acc -> acc + conn_resident_bytes c) stack.conns 0

module Bytebuf = Engine.Bytebuf
module Node = Simnet.Node
module Segment = Simnet.Segment
module Vl = Vlink.Vl
module Streamq = Vlink.Streamq
module Backoff = Padico_fault.Backoff
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics

let log = Logs.Src.create "resilient"

module Log = (val Logs.src_log log : Logs.LOG)

type config = {
  retry_base_ns : int;
  retry_factor : float;
  retry_max_ns : int;
  retry_jitter : float;
  max_retries : int;
  ack_timeout_ns : int;
  seed : int;
  tx_window : int;
  rx_high : int;
  rx_low : int;
}

let default_config =
  { retry_base_ns = 1_000_000; retry_factor = 2.0; retry_max_ns = 200_000_000;
    retry_jitter = 0.25; max_retries = 10; ack_timeout_ns = 50_000_000;
    seed = 0x5e55; tx_window = 4 * 1024 * 1024; rx_high = 1024 * 1024;
    rx_low = 256 * 1024 }

(* ---------- wire frames ---------- *)

let k_hello = 0

let k_data = 1

let k_ack = 2

let k_fin = 3

(* DATA payload cap per frame; big enough that framing overhead is noise,
   small enough that a loss-burst does not stall one giant write. *)
let frame_max = 65_536

let hello_frame ~session ~ack =
  let b = Bytebuf.create 9 in
  Bytebuf.set_u8 b 0 k_hello;
  Bytebuf.set_u32 b 1 session;
  Bytebuf.set_u32 b 5 ack;
  b

let ack_frame ~ack =
  let b = Bytebuf.create 5 in
  Bytebuf.set_u8 b 0 k_ack;
  Bytebuf.set_u32 b 1 ack;
  b

let fin_frame () =
  let b = Bytebuf.create 1 in
  Bytebuf.set_u8 b 0 k_fin;
  b

(* ---------- state ---------- *)

type parse_state =
  | P_kind
  | P_hdr of int  (* frame kind; waiting for its fixed header *)
  | P_payload of { offset : int; len : int }

type link = {
  lvl : Vl.t;
  lseg : Segment.t option;
  ldriver : string;
  lrq : Streamq.t;  (* reassembly buffer for frame parsing *)
  mutable lparse : parse_state;
  mutable ldead : bool;
  mutable lpaused : bool;  (* inner reads parked: session rx over high *)
  mutable lsess : sess option;  (* acceptor side: None until HELLO *)
  lln : listener option;  (* acceptor side: who accepted this transport *)
}

and role =
  | Client of client
  | Server of listener

and client = {
  cpad : Padico.t;
  csrc : Node.t;
  cdst : Node.t;
  cport : int;
  backoff : Backoff.t;
  mutable exclude : Segment.t list;  (* segments blamed for the outage *)
  mutable session_id : int;  (* 0 until the acceptor assigns one *)
  mutable attempts : int;  (* failed dials in the current outage *)
  mutable downtime_start : int option;
}

and listener = {
  lnode : Node.t;
  lcfg : config;
  laccept : Vl.t -> unit;
  sessions : (int, sess) Hashtbl.t;
  mutable next_sid : int;
}

and sess = {
  cfg : config;
  snode : Node.t;
  role : role;
  outer : Vl.t;
  mutable sid : int;
  mutable link : link option;
  mutable established : bool;
  mutable closed : bool;  (* we closed *)
  mutable finished : bool;  (* peer sent FIN *)
  (* The goodbye occupies one virtual byte of sequence space at [buf_end]:
     a closing session lingers — failover machinery and all — until the
     peer has acknowledged every data byte and the FIN itself
     (ack > buf_end). Otherwise a close right after a write tears the
     carrier down under in-flight data, and nobody is left to redial. *)
  mutable fin_sent : bool;  (* FIN written on the current link *)
  mutable fin_acked : bool;
  (* send side: bytes [una_off, buf_end) are buffered, [una_off, snd_nxt)
     are in flight on the current link. *)
  mutable txbuf : Bytebuf.t list;
  mutable una_off : int;
  mutable snd_nxt : int;
  mutable buf_end : int;
  mutable tx_peak : int;  (* high-water mark of buf_end - una_off *)
  (* receive side *)
  rx : Streamq.t;
  mutable rcv_nxt : int;
  (* stats *)
  mutable switches : int;
  mutable total_retries : int;
  mutable total_downtime : int;
  mutable cur_driver : string;
  mutable ops_attached : bool;
  mutable wd : Engine.Clock.timer; (* [Engine.Clock.none] unless armed *)
  mutable estd_cbs : (unit -> unit) list;  (* fired on each establishment *)
}

type conn = sess

let clock_of s = Node.clock s.snode

let now s = Engine.Clock.now (clock_of s)

(* Establishment watchers run after the session bookkeeping settles, in
   registration order. *)
let fire_established s = List.iter (fun f -> f ()) (List.rev s.estd_cbs)

(* ---------- send buffer ---------- *)

let tx_append s buf =
  s.txbuf <- s.txbuf @ [ Bytebuf.copy buf ];
  s.buf_end <- s.buf_end + Bytebuf.length buf;
  s.tx_peak <- Stdlib.max s.tx_peak (s.buf_end - s.una_off)

let tx_used s = s.buf_end - s.una_off

let tx_space s =
  if s.cfg.tx_window = max_int then max_int
  else Stdlib.max 0 (s.cfg.tx_window - tx_used s)

(* Drop everything the peer has acknowledged. *)
let ack_advance s ack =
  let ack = min ack s.buf_end in
  if ack > s.una_off then begin
    let rec go l off =
      match l with
      | [] -> []
      | b :: rest ->
        let len = Bytebuf.length b in
        if off + len <= ack then go rest (off + len)
        else Bytebuf.sub b (ack - off) (len - (ack - off)) :: rest
    in
    s.txbuf <- go s.txbuf s.una_off;
    s.una_off <- ack;
    if s.snd_nxt < ack then s.snd_nxt <- ack
  end

(* Copy [len] buffered bytes starting at absolute offset [off] into
   [dst] at [dst_off]. *)
let tx_copy s ~off ~len ~dst ~dst_off =
  let copied = ref 0 in
  let pos = ref s.una_off in
  List.iter
    (fun b ->
       let blen = Bytebuf.length b in
       let lo = !pos and hi = !pos + blen in
       if !copied < len && hi > off + !copied then begin
         let src_off = off + !copied - lo in
         let n = min (blen - src_off) (len - !copied) in
         Bytebuf.blit ~src:b ~src_off ~dst ~dst_off:(dst_off + !copied) ~len:n;
         copied := !copied + n
       end;
       pos := hi)
    s.txbuf;
  assert (!copied = len)

let outstanding s = s.buf_end > s.una_off

(* A closing session still owes the peer its FIN (and the data before it). *)
let fin_owed s = s.closed && not s.fin_acked

(* Nothing left to drive: the peer said goodbye, or our own goodbye has
   been acknowledged end to end. *)
let sess_done s = s.finished || (s.closed && s.fin_acked)

(* ---------- obs ---------- *)

let count name =
  Engine.Stats.Counter.incr (Metrics.counter Metrics.Global name)

let emit_retry s ~attempt ~delay_ns ~target =
  count "resilience.retry";
  if Trace.on () then
    Trace.instant s.snode
      (Padico_obs.Event.Retry { attempt; delay_ns; target })

let emit_failover s ~from_ ~to_ ~retries ~downtime_ns =
  count "resilience.failover";
  if Trace.on () then
    Trace.instant s.snode
      (Padico_obs.Event.Failover { from_; to_; retries; downtime_ns })

(* ---------- forward declarations would be a burden: one big cluster ---- *)

let rec write_frame l frame =
  if not l.ldead then begin
    let req = Vl.post_write l.lvl frame in
    Vl.set_handler req (function
      | Vl.Done _ -> ()
      | Vl.Again -> () (* blocking posts never yield Again *)
      | Vl.Eof -> link_failed l "write eof"
      | Vl.Error msg -> link_failed l ("write: " ^ msg))
  end

(* Push [snd_nxt, buf_end) onto the current link as DATA frames. *)
and transmit s =
  match s.link with
  | Some l when s.established && not l.ldead ->
    while s.snd_nxt < s.buf_end do
      let len = min frame_max (s.buf_end - s.snd_nxt) in
      let frame = Bytebuf.create (9 + len) in
      Bytebuf.set_u8 frame 0 k_data;
      Bytebuf.set_u32 frame 1 s.snd_nxt;
      Bytebuf.set_u32 frame 5 len;
      tx_copy s ~off:s.snd_nxt ~len ~dst:frame ~dst_off:9;
      s.snd_nxt <- s.snd_nxt + len;
      write_frame l frame
    done;
    (* The FIN rides the same ordered stream, after the last data byte;
       re-sent on each link incarnation until the peer acknowledges it. *)
    if fin_owed s && (not s.fin_sent) && s.snd_nxt = s.buf_end then begin
      s.fin_sent <- true;
      write_frame l (fin_frame ())
    end
  | _ -> ()

(* ---------- watchdog (connector side) ----------

   Armed whenever progress is owed: session not yet (re)established, or
   unacked bytes in flight. If neither the establishment flag nor the ack
   position moved during a full period, the link is silently blackholed
   (partition: frames drop without any carrier event) — declare it dead. *)
and arm_watchdog s =
  match s.role with
  | Server _ -> ()
  | Client _ ->
    if s.wd == Engine.Clock.none
       && (not (sess_done s))
       && ((not s.established) || outstanding s || fin_owed s)
    then begin
      let snap_est = s.established and snap_una = s.una_off in
      s.wd <-
        Engine.Clock.arm (clock_of s) s.cfg.ack_timeout_ns (fun () ->
            s.wd <- Engine.Clock.none;
            if not (sess_done s) then
              if (not s.established) || outstanding s || fin_owed s then
                if s.established = snap_est && s.una_off = snap_una then (
                  match s.link with
                  | Some l -> link_failed l "timeout (no ack progress)"
                  | None ->
                    (* outage in progress, redial timer owns recovery *)
                    arm_watchdog s)
                else arm_watchdog s)
    end

and cancel_watchdog s =
  Engine.Clock.cancel s.wd;
  s.wd <- Engine.Clock.none

(* ---------- failure & redial (connector side) ---------- *)

and link_failed l msg =
  if not l.ldead then begin
    l.ldead <- true;
    (match l.lsess with
     | None -> Vl.close l.lvl
     | Some s -> session_link_failed s l msg)
  end

and session_link_failed s l msg =
  if not (sess_done s) then begin
    Log.debug (fun m ->
        m "%s: link %s failed: %s" (Node.name s.snode) l.ldriver msg);
    (match s.link with
     | Some cur when cur == l ->
       s.link <- None;
       s.established <- false
     | _ -> ());
    Vl.close l.lvl;
    match s.role with
    | Server _ ->
      (* Passive: hold the session, the connector will redial. *)
      ()
    | Client c ->
      if c.downtime_start = None then c.downtime_start <- Some (now s);
      (match l.lseg with
       | Some seg
         when not
                (List.exists
                   (fun e -> Segment.uid e = Segment.uid seg)
                   c.exclude) ->
         c.exclude <- seg :: c.exclude
       | _ -> ());
      schedule_redial s msg
  end

and give_up s msg =
  s.closed <- true;
  s.fin_acked <- true;  (* stop lingering: there is no link left to drive *)
  cancel_watchdog s;
  (match s.link with Some l -> l.ldead <- true; Vl.close l.lvl | None -> ());
  s.link <- None;
  Vl.notify s.outer (Vl.Failed msg)

and schedule_redial s msg =
  match s.role with
  | Server _ -> ()
  | Client c ->
    if c.attempts >= s.cfg.max_retries then
      give_up s ("failover exhausted: " ^ msg)
    else begin
      c.attempts <- c.attempts + 1;
      s.total_retries <- s.total_retries + 1;
      let delay_ns = Backoff.next c.backoff in
      emit_retry s ~attempt:c.attempts ~delay_ns ~target:(Node.name c.cdst);
      Engine.Clock.after (clock_of s) delay_ns (fun () ->
          if (not (sess_done s)) && not s.established then dial s)
    end

(* ---------- dialing (connector side) ---------- *)

and dial s =
  match s.role with
  | Server _ -> ()
  | Client c ->
    let choose exclude =
      match
        Selector.choose ~prefs:(Padico.prefs c.cpad) ~exclude
          (Padico.net c.cpad) ~src:c.csrc ~dst:c.cdst
      with
      | ch -> Some ch
      | exception Failure _ -> None
    in
    let choice =
      match choose c.exclude with
      | Some ch -> Some ch
      | None when c.exclude <> [] ->
        (* Everything usable is blacklisted: forgive and retry — the
           excluded link may have healed. *)
        c.exclude <- [];
        choose []
      | None -> None
    in
    (match choice with
     | None -> schedule_redial s "no usable network"
     | Some ch ->
       (match
          Padico.connect_with_choice c.cpad ~src:c.csrc ~dst:c.cdst
            ~port:c.cport ch
        with
        | exception e -> schedule_redial s (Printexc.to_string e)
        | vl ->
          let l =
            { lvl = vl; lseg = ch.Selector.segment;
              ldriver = ch.Selector.driver; lrq = Streamq.create ();
              lparse = P_kind; ldead = false; lpaused = false;
              lsess = Some s; lln = None }
          in
          s.link <- Some l;
          let hello () =
            write_frame l
              (hello_frame ~session:c.session_id ~ack:s.rcv_nxt)
          in
          Vl.on_event vl (function
            | Vl.Connected -> hello ()
            | Vl.Failed m -> link_failed l m
            | Vl.Peer_closed ->
              if not s.finished then link_failed l "peer closed"
            | Vl.Readable | Vl.Writable -> ());
          if Vl.is_connected vl then hello ()
          else if Vl.is_closed vl then link_failed l "connect failed";
          read_loop l;
          arm_watchdog s))

(* ---------- inner receive path ---------- *)

and read_loop l =
  let buf = Bytebuf.create frame_max in
  let rec again () =
    if not l.ldead then begin
      (* Receive-side pushback: when the application lets the session's
         receive queue climb past the high watermark, park the inner read
         loop — unread bytes back up in the transport (closing a TCP
         receive window, stalling MadIO credits) instead of growing rx
         without bound. [resume_rx] restarts us when the app drains.
         Note the shared-stream tradeoff: ACKs for our own transmissions
         ride the same inner stream, so a parked reader also stalls its
         own send window until the application reads — flow control
         couples the two directions, exactly like a real socket. *)
      match l.lsess with
      | Some s when Streamq.length s.rx >= s.cfg.rx_high ->
        l.lpaused <- true;
        if Trace.on () then
          Trace.instant s.snode
            (Padico_obs.Event.Flow
               { action = "pause"; place = "resilient.rx";
                 bytes = Streamq.length s.rx })
      | _ ->
        let req = Vl.post_read l.lvl buf in
        Vl.set_handler req (function
          | Vl.Done n ->
            Streamq.push l.lrq (Bytebuf.copy (Bytebuf.sub buf 0 n));
            parse l;
            again ()
          | Vl.Again -> again ()
          | Vl.Eof ->
            (* Clean inner EOF without FIN: connection died politely (e.g.
               remote runtime closed the transport) — same as a failure. *)
            link_failed l "eof"
          | Vl.Error msg -> link_failed l msg)
    end
  in
  again ()

(* Keep parsing a dead link as long as it has a bound session: a clean FIN
   (and the DATA frames before it) often arrives in the same flight as the
   carrier teardown it caused, so bytes received before the drop are still
   valid session stream. Only a pre-HELLO link discards its backlog. *)
and parse_on l = (not l.ldead) || l.lsess <> None

and parse l =
  if parse_on l then begin
    let q = l.lrq in
    let continue = ref true in
    while !continue do
      continue := false;
      match l.lparse with
      | P_kind ->
        if Streamq.length q >= 1 then begin
          let b = Streamq.pop_exact q 1 in
          let kind = Bytebuf.get_u8 b 0 in
          if kind = k_fin then begin
            handle_fin l;
            continue := parse_on l
          end
          else begin
            l.lparse <- P_hdr kind;
            continue := true
          end
        end
      | P_hdr kind ->
        let need =
          if kind = k_hello then 8
          else if kind = k_data then 8
          else if kind = k_ack then 4
          else -1
        in
        if need < 0 then link_failed l (Printf.sprintf "bad frame kind %d" kind)
        else if Streamq.length q >= need then begin
          let h = Streamq.pop_exact q need in
          if kind = k_hello then begin
            l.lparse <- P_kind;
            handle_hello l ~session:(Bytebuf.get_u32 h 0)
              ~ack:(Bytebuf.get_u32 h 4)
          end
          else if kind = k_data then
            l.lparse <-
              P_payload
                { offset = Bytebuf.get_u32 h 0; len = Bytebuf.get_u32 h 4 }
          else begin
            l.lparse <- P_kind;
            handle_ack l (Bytebuf.get_u32 h 0)
          end;
          continue := parse_on l
        end
      | P_payload { offset; len } ->
        if Streamq.length q >= len then begin
          let payload = Streamq.pop_exact q len in
          l.lparse <- P_kind;
          handle_data l ~offset payload;
          continue := parse_on l
        end
    done
  end

(* ---------- frame handlers ---------- *)

and handle_hello l ~session ~ack =
  match l.lsess with
  | Some s -> session_established s l ~session ~ack
  | None -> (
    (* acceptor side, link not yet bound *)
    match l.lln with
    | None -> link_failed l "unexpected HELLO"
    | Some ln ->
      if session = 0 then begin
        let sid = ln.next_sid in
        ln.next_sid <- sid + 1;
        let s = make_sess ln.lcfg ln.lnode (Server ln) in
        s.sid <- sid;
        Hashtbl.replace ln.sessions sid s;
        bind_link s l;
        s.established <- true;
        write_frame l (hello_frame ~session:sid ~ack:s.rcv_nxt);
        s.ops_attached <- true;
        s.cur_driver <- l.ldriver;
        Vl.attach_ops s.outer (outer_ops s);
        ln.laccept s.outer;
        fire_established s
      end
      else begin
        match Hashtbl.find_opt ln.sessions session with
        | None ->
          (* Unknown session (e.g. acceptor restarted): refuse. *)
          link_failed l "unknown session"
        | Some s ->
          (* Rebind: retire whatever link the session still holds. *)
          (match s.link with
           | Some old when not old.ldead ->
             old.ldead <- true;
             Vl.close old.lvl
           | _ -> ());
          bind_link s l;
          ack_advance s ack;
          s.snd_nxt <- s.una_off;
          s.fin_sent <- false;
          s.established <- true;
          s.cur_driver <- l.ldriver;
          write_frame l (hello_frame ~session ~ack:s.rcv_nxt);
          transmit s;
          fire_established s
      end)

and session_established s l ~session ~ack =
  match s.role with
  | Server _ ->
    (* Acceptor sessions never receive a second HELLO on a bound link. *)
    ignore session;
    ignore ack;
    link_failed l "unexpected HELLO on bound link"
  | Client c ->
    c.session_id <- session;
    ack_advance s ack;
    s.snd_nxt <- s.una_off;
    s.fin_sent <- false;
    s.established <- true;
    let t_now = now s in
    if not s.ops_attached then begin
      s.ops_attached <- true;
      s.cur_driver <- l.ldriver;
      Vl.attach_ops s.outer (outer_ops s)
    end
    else begin
      let start = Option.value c.downtime_start ~default:t_now in
      let dt = t_now - start in
      s.total_downtime <- s.total_downtime + dt;
      if l.ldriver <> s.cur_driver then begin
        s.switches <- s.switches + 1;
        emit_failover s ~from_:s.cur_driver ~to_:l.ldriver
          ~retries:c.attempts ~downtime_ns:dt
      end;
      s.cur_driver <- l.ldriver
    end;
    c.downtime_start <- None;
    c.attempts <- 0;
    c.exclude <- [];
    Backoff.reset c.backoff;
    transmit s;
    arm_watchdog s;
    fire_established s

and handle_ack l ack =
  match l.lsess with
  | None -> link_failed l "ACK before HELLO"
  | Some s ->
    let before = tx_space s in
    ack_advance s ack;
    (* Freed window space: let queued outer writes back in. *)
    if tx_space s > before && not s.closed then
      Vl.notify s.outer Vl.Writable;
    (* ack > buf_end acknowledges the FIN: the whole stream arrived, the
       lingering close can finally drop the carrier. *)
    if fin_owed s && ack > s.buf_end then begin
      s.fin_acked <- true;
      finish_close s
    end
    else begin
      (* Progress: let the watchdog take a fresh snapshot. *)
      cancel_watchdog s;
      arm_watchdog s
    end

and handle_data l ~offset payload =
  match l.lsess with
  | None -> link_failed l "DATA before HELLO"
  | Some s ->
    let len = Bytebuf.length payload in
    if offset > s.rcv_nxt then
      (* A gap is impossible on a healthy rewind; drop and let the sender's
         watchdog sort it out. *)
      Log.warn (fun m ->
          m "%s: dropping out-of-order DATA at %d (expect %d)"
            (Node.name s.snode) offset s.rcv_nxt)
    else begin
      (* Duplicate prefix from a retransmit rewind: deliver only the new
         suffix. *)
      let skip = s.rcv_nxt - offset in
      if skip < len then begin
        Streamq.push s.rx (Bytebuf.sub payload skip (len - skip));
        s.rcv_nxt <- s.rcv_nxt + (len - skip);
        Vl.notify s.outer Vl.Readable
      end;
      write_frame l (ack_frame ~ack:s.rcv_nxt)
    end

and handle_fin l =
  match l.lsess with
  | None -> link_failed l "FIN before HELLO"
  | Some s ->
    let first = not s.finished in
    s.finished <- true;
    (* Acknowledge the FIN's virtual byte so the closer knows the whole
       stream made it and stops lingering. A FIN retransmitted over a
       failover is re-acked; [Peer_closed] still fires exactly once. The
       session stays in the acceptor's table until the closer drops the
       carrier, so a redial racing a lost FIN-ack can still rebind. *)
    write_frame l (ack_frame ~ack:(s.rcv_nxt + 1));
    if first then begin
      cancel_watchdog s;
      Vl.notify s.outer Vl.Peer_closed
    end

(* ---------- session plumbing ---------- *)

and bind_link s l =
  l.lsess <- Some s;
  s.link <- Some l

and make_sess cfg node role =
  if cfg.tx_window < frame_max then
    invalid_arg "Resilient: tx_window must be >= 64 KiB";
  if cfg.rx_low < 0 || cfg.rx_low > cfg.rx_high then
    invalid_arg "Resilient: need 0 <= rx_low <= rx_high";
  let s =
  { cfg; snode = node; role; outer = Vl.create node; sid = 0; link = None;
    established = false; closed = false; finished = false;
    fin_sent = false; fin_acked = false; txbuf = [];
    tx_peak = 0;
    una_off = 0; snd_nxt = 0; buf_end = 0; rx = Streamq.create ();
    rcv_nxt = 0; switches = 0; total_retries = 0; total_downtime = 0;
    cur_driver = "(none)"; ops_attached = false; wd = Engine.Clock.none;
    estd_cbs = [] }
  in
  let scope = Metrics.Node (Node.name node) in
  Metrics.gauge scope "resilient.txbuf_bytes" (fun () ->
      float_of_int (tx_used s));
  Metrics.gauge scope "resilient.rx_bytes" (fun () ->
      float_of_int (Streamq.length s.rx));
  s

and close_sess s =
  if not s.closed then begin
    s.closed <- true;
    if s.finished then begin
      (* The peer already said goodbye: its session is winding down and
         will never ack a FIN, so say ours best-effort and drop. *)
      cancel_watchdog s;
      (match s.role with
       | Server ln -> Hashtbl.remove ln.sessions s.sid
       | Client _ -> ());
      s.fin_acked <- true;
      match s.link with
      | Some l when not l.ldead ->
        let req = Vl.post_write l.lvl (fin_frame ()) in
        Vl.set_handler req (fun _ ->
            l.ldead <- true;
            Vl.close l.lvl)
      | _ -> ()
    end
    else begin
      (* Linger: the FIN rides the ordered stream behind any buffered
         data, and the session — watchdog, redial, retransmit — stays
         alive until the peer acknowledges it ({!handle_ack}). A close
         right after a burst of writes must not strand in-flight bytes
         when the carrier dies: with the session still live, the failover
         machinery replays them on the next link. *)
      transmit s;
      arm_watchdog s
    end
  end

and finish_close s =
  cancel_watchdog s;
  (match s.role with
   | Server ln -> Hashtbl.remove ln.sessions s.sid
   | Client _ -> ());
  (match s.link with
   | Some l when not l.ldead ->
     l.ldead <- true;
     Vl.close l.lvl
   | _ -> ());
  s.link <- None

and outer_ops s =
  { Vl.o_write =
      (fun buf ->
         if s.closed || s.finished then 0
         else begin
           (* The rewind buffer is bounded against the peer's acked offset:
              accept only what fits in the remaining window. The rest stays
              queued in the outer VLink and is retried when an ACK reopens
              space (ack_advance notifies Writable). *)
           let n = min (Bytebuf.length buf) (tx_space s) in
           if n > 0 then begin
             tx_append s (Bytebuf.sub buf 0 n);
             transmit s;
             arm_watchdog s
           end
           else if Bytebuf.length buf > 0 && Trace.on () then
             Trace.instant s.snode
               (Padico_obs.Event.Flow
                  { action = "window.full"; place = "resilient.tx";
                    bytes = tx_used s });
           n
         end);
    o_read =
      (fun ~max ->
         let r = Streamq.pop s.rx ~max in
         resume_rx s;
         r);
    o_readable = (fun () -> Streamq.length s.rx);
    o_write_space = (fun () -> if s.closed then 0 else tx_space s);
    o_close = (fun () -> close_sess s);
    o_driver = "resilient" }

(* Restart a parked inner read loop once the application has drained the
   session's receive queue to the low watermark. The pause state lives on
   the link, so a failover mid-pause starts the new link's loop afresh
   (which re-parks immediately if the queue is still high). *)
and resume_rx s =
  match s.link with
  | Some l
    when l.lpaused && (not l.ldead) && Streamq.length s.rx <= s.cfg.rx_low ->
    l.lpaused <- false;
    if Trace.on () then
      Trace.instant s.snode
        (Padico_obs.Event.Flow
           { action = "resume"; place = "resilient.rx";
             bytes = Streamq.length s.rx });
    read_loop l
  | _ -> ()

(* ---------- public API ---------- *)

let connect ?(config = default_config) pad ~src ~dst ~port =
  let c =
    { cpad = pad; csrc = src; cdst = dst; cport = port;
      backoff =
        Backoff.create ~base_ns:config.retry_base_ns
          ~factor:config.retry_factor ~max_ns:config.retry_max_ns
          ~jitter:config.retry_jitter ~seed:config.seed ();
      exclude = []; session_id = 0; attempts = 0; downtime_start = None }
  in
  let s = make_sess config src (Client c) in
  dial s;
  s

let vl s = s.outer

let on_established s f =
  s.estd_cbs <- f :: s.estd_cbs;
  if s.established then f ()

type stats = {
  switches : int;
  retries : int;
  downtime_ns : int;
  driver : string;
  established : bool;
  tx_peak : int;
  rx_peak : int;
}

let stats s =
  let downtime =
    match s.role with
    | Client { downtime_start = Some t0; _ } ->
      s.total_downtime + (now s - t0)
    | _ -> s.total_downtime
  in
  { switches = s.switches; retries = s.total_retries;
    downtime_ns = downtime;
    driver = (if s.established then s.cur_driver else "(none)");
    established = s.established; tx_peak = s.tx_peak;
    rx_peak = Streamq.peak s.rx }

let listen ?(config = default_config) pad node ~port accept =
  let ln =
    { lnode = node; lcfg = config; laccept = accept;
      sessions = Hashtbl.create 8; next_sid = 1 }
  in
  Padico.listen pad node ~port (fun inbound ->
      let l =
        { lvl = inbound; lseg = None; ldriver = Vl.driver_name inbound;
          lrq = Streamq.create (); lparse = P_kind; ldead = false;
          lpaused = false; lsess = None; lln = Some ln }
      in
      Vl.on_event inbound (function
        | Vl.Failed m -> link_failed l m
        | Vl.Peer_closed ->
          (match l.lsess with
           | Some s when s.finished ->
             (* Orderly teardown: the closer got our FIN-ack and dropped
                the carrier — the session can leave the table now. *)
             Hashtbl.remove ln.sessions s.sid
           | _ -> link_failed l "peer closed")
        | Vl.Connected | Vl.Readable | Vl.Writable -> ());
      read_loop l)

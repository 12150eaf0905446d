module Bytebuf = Engine.Bytebuf
module Proc = Engine.Proc
module Sim = Engine.Sim

let log = Logs.Src.create "methods.vrp"

module Log = (val Logs.src_log log : Logs.LOG)

(* Wire format (one UDP datagram each):
   DATA     [u8 1 | u32 seq | u32 len | bytes]        (len < chunk for tail)
   FEEDBACK [u8 2 | u32 highest | u16 n | n * u32 missing-seq]
   ABANDON  [u8 3 | u16 n | n * u32 seq]
   FIN      [u8 4 | u32 total-chunks | u64 total-bytes] *)

let data_hdr = 9

let feedback_every = 32

let feedback_interval_ns = 50_000_000

type sender = {
  sio : Netaccess.Sysio.t;
  udp : Drivers.Udp.t;
  dst : int;
  dst_port : int;
  src_port : int;
  tolerance : float;
  chunk : int;
  mutable rate : float;
  node : Simnet.Node.t;
  pending : Bytebuf.t Queue.t; (* chunks not yet sent *)
  retrans : int Queue.t; (* seqs to retransmit (priority) *)
  store : (int, Bytebuf.t) Hashtbl.t; (* sent, possibly needed again *)
  mutable next_seq : int;
  mutable total_bytes : int;
  mutable finished : bool;
  mutable fin_acked : bool;
  mutable sent : int;
  mutable retransmitted : int;
  mutable abandoned : int;
  abandoned_set : (int, unit) Hashtbl.t;
  (* Rate control: gaps already counted against the budget, and datagrams
     sent since the last feedback (to turn gap counts into a loss rate). *)
  counted_missing : (int, unit) Hashtbl.t;
  mutable sent_since_fb : int;
  rate_max : float;
  mutable pacer_running : bool;
  mutable partial : Bytebuf.t list; (* sub-chunk leftovers, reversed *)
  mutable partial_len : int;
  mutable backlog : int; (* bytes accepted but not yet paced onto the wire *)
  mutable on_drain : (unit -> unit) option;
      (* one-shot: fired when the pacer dequeues, i.e. backlog shrank *)
}

type receiver = {
  rnode : Simnet.Node.t;
  rudp : Drivers.Udp.t;
  rport : int;
  on_chunk : (offset:int -> Bytebuf.t -> unit) option;
  on_complete : (unit -> unit) option;
  seen : (int, int) Hashtbl.t; (* seq -> byte length *)
  lost : (int, int) Hashtbl.t; (* abandoned seq -> assumed length *)
  mutable highest : int; (* highest seq seen + 1 *)
  mutable delivered : int;
  mutable lost_bytes_ : int;
  mutable total_chunks : int option; (* known after FIN *)
  mutable chunk_len : int; (* full chunk length, learned from data *)
  mutable since_feedback : int;
  mutable peer : (int * int) option; (* sender node, port *)
  mutable complete_ : bool;
  mutable completion_fired : bool;
  mutable ticking : bool; (* periodic-feedback timer armed *)
}

(* ---------- encoding helpers ---------- *)

let encode_data ~seq (chunk : Bytebuf.t) =
  let len = Bytebuf.length chunk in
  let out = Bytebuf.create (data_hdr + len) in
  Bytebuf.set_u8 out 0 1;
  Bytebuf.set_u32 out 1 seq;
  Bytebuf.set_u32 out 5 len;
  Bytebuf.blit_dma ~src:chunk ~src_off:0 ~dst:out ~dst_off:data_hdr ~len;
  out

let encode_feedback ~highest missing =
  let n = min 200 (List.length missing) in
  let out = Bytebuf.create (7 + (4 * n)) in
  Bytebuf.set_u8 out 0 2;
  Bytebuf.set_u32 out 1 highest;
  Bytebuf.set_u16 out 5 n;
  List.iteri
    (fun i seq -> if i < n then Bytebuf.set_u32 out (7 + (4 * i)) seq)
    missing;
  out

let encode_abandon seqs =
  let n = min 200 (List.length seqs) in
  let out = Bytebuf.create (3 + (4 * n)) in
  Bytebuf.set_u8 out 0 3;
  Bytebuf.set_u16 out 1 n;
  List.iteri (fun i s -> if i < n then Bytebuf.set_u32 out (3 + (4 * i)) s) seqs;
  out

let encode_fin ~total_chunks ~total_bytes =
  let out = Bytebuf.create 13 in
  Bytebuf.set_u8 out 0 4;
  Bytebuf.set_u32 out 1 total_chunks;
  Bytebuf.set_int out 5 total_bytes;
  out

(* ---------- sender ---------- *)

let sender_rate_bps s = s.rate

let chunks_sent s = s.sent

let chunks_retransmitted s = s.retransmitted

let chunks_abandoned s = s.abandoned

let emit_data s ~seq chunk =
  Simnet.Node.charge s.node Calib.vrp_send_ns;
  Drivers.Udp.sendto s.udp ~dst:s.dst ~dst_port:s.dst_port
    ~src_port:s.src_port (encode_data ~seq chunk)

let send_fin s =
  Drivers.Udp.sendto s.udp ~dst:s.dst ~dst_port:s.dst_port
    ~src_port:s.src_port
    (encode_fin ~total_chunks:s.next_seq ~total_bytes:s.total_bytes)

(* The pacer: one chunk per rate interval; retransmissions first. *)
let rec pacer s () =
  let sim = Simnet.Node.sim s.node in
  let interval () =
    int_of_float (float_of_int (s.chunk + data_hdr) /. s.rate *. 1e9)
  in
  if not (Queue.is_empty s.retrans) then begin
    let seq = Queue.pop s.retrans in
    (match Hashtbl.find_opt s.store seq with
     | Some chunk ->
       s.retransmitted <- s.retransmitted + 1;
       s.sent_since_fb <- s.sent_since_fb + 1;
       emit_data s ~seq chunk
     | None -> () (* already resolved *));
    Proc.sleep sim (interval ());
    pacer s ()
  end
  else if not (Queue.is_empty s.pending) then begin
    let chunk = Queue.pop s.pending in
    s.backlog <- s.backlog - Bytebuf.length chunk;
    (match s.on_drain with
     | Some f ->
       s.on_drain <- None;
       f ()
     | None -> ());
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    Hashtbl.replace s.store seq chunk;
    s.sent <- s.sent + 1;
    s.sent_since_fb <- s.sent_since_fb + 1;
    emit_data s ~seq chunk;
    Proc.sleep sim (interval ());
    pacer s ()
  end
  else if s.finished && not s.fin_acked then begin
    send_fin s;
    (* Re-announce FIN periodically until everything is resolved. *)
    Proc.sleep sim 100_000_000;
    if not s.fin_acked then pacer s () else s.pacer_running <- false
  end
  else s.pacer_running <- false

let kick_pacer s =
  if not s.pacer_running then begin
    s.pacer_running <- true;
    ignore (Simnet.Node.spawn s.node ~name:"vrp-pacer" (pacer s))
  end

let budget_allows_abandon s =
  float_of_int (s.abandoned + 1) <= s.tolerance *. float_of_int s.next_seq

let handle_feedback s buf =
  let n = Bytebuf.get_u16 buf 5 in
  let highest = Bytebuf.get_u32 buf 1 in
  let missing = ref [] in
  for i = 0 to n - 1 do
    missing := Bytebuf.get_u32 buf (7 + (4 * i)) :: !missing
  done;
  let missing = !missing in
  (* Everything below [highest] and not missing has been received: release. *)
  Hashtbl.iter
    (fun seq _ ->
       if seq < highest && not (List.mem seq missing) then
         Hashtbl.remove s.store seq)
    (Hashtbl.copy s.store);
  (* Decide per gap: abandon within budget, else retransmit. *)
  let to_abandon = ref [] in
  List.iter
    (fun seq ->
       if Hashtbl.mem s.abandoned_set seq then
         (* Still reported missing: the previous ABANDON was lost. Resend. *)
         to_abandon := seq :: !to_abandon
       else if budget_allows_abandon s then begin
         s.abandoned <- s.abandoned + 1;
         Hashtbl.replace s.abandoned_set seq ();
         Hashtbl.remove s.store seq;
         to_abandon := seq :: !to_abandon
       end
       else if Hashtbl.mem s.store seq then Queue.push seq s.retrans)
    missing;
  if !to_abandon <> [] then
    Drivers.Udp.sendto s.udp ~dst:s.dst ~dst_port:s.dst_port
      ~src_port:s.src_port (encode_abandon !to_abandon);
  (* Loss-budget rate control: only {e fresh} gaps count, and the rate
     decays only while the fresh-loss rate exceeds the tolerated budget —
     within the budget VRP deliberately does NOT interpret loss as
     congestion (that is its whole advantage over TCP on lossy WANs). *)
  let fresh =
    List.filter
      (fun seq ->
         if Hashtbl.mem s.counted_missing seq then false
         else begin
           Hashtbl.replace s.counted_missing seq ();
           true
         end)
      missing
  in
  let window = max 8 s.sent_since_fb in
  s.sent_since_fb <- 0;
  let fresh_ratio = float_of_int (List.length fresh) /. float_of_int window in
  if fresh_ratio > Float.max (s.tolerance *. 1.5) 0.01 then
    s.rate <- Float.max 64e3 (s.rate *. 0.9)
  else s.rate <- Float.min s.rate_max (s.rate *. 1.05);
  kick_pacer s

let handle_sender_dgram s buf =
  match Bytebuf.get_u8 buf 0 with
  | 2 -> handle_feedback s buf
  | 4 -> s.fin_acked <- true (* receiver echoes FIN when complete *)
  | _ -> ()

let next_vrp_port = Atomic.make 40_000

let create_sender sio udp ~dst ~dst_port ~tolerance ~rate_bps =
  if tolerance < 0.0 || tolerance >= 1.0 then
    invalid_arg "Vrp.create_sender: tolerance must be in [0,1)";
  let src_port = Atomic.fetch_and_add next_vrp_port 1 + 1 in
  let chunk = Drivers.Udp.max_payload udp - data_hdr in
  let s =
    { sio; udp; dst; dst_port; src_port; tolerance; chunk; rate = rate_bps;
      node = Drivers.Udp.node udp; pending = Queue.create ();
      retrans = Queue.create (); store = Hashtbl.create 64; next_seq = 0;
      total_bytes = 0; finished = false; fin_acked = false; sent = 0;
      retransmitted = 0; abandoned = 0; abandoned_set = Hashtbl.create 16;
      counted_missing = Hashtbl.create 64; sent_since_fb = 0;
      rate_max = rate_bps; pacer_running = false; partial = [];
      partial_len = 0; backlog = 0; on_drain = None }
  in
  Netaccess.Sysio.watch_udp sio udp ~port:src_port
    (fun ~src:_ ~src_port:_ buf -> handle_sender_dgram s buf);
  s

let push_chunk s chunk =
  s.total_bytes <- s.total_bytes + Bytebuf.length chunk;
  Queue.push chunk s.pending

let send s buf =
  if s.finished then invalid_arg "Vrp.send: stream finished";
  s.backlog <- s.backlog + Bytebuf.length buf;
  s.partial <- buf :: s.partial;
  s.partial_len <- s.partial_len + Bytebuf.length buf;
  if s.partial_len >= s.chunk then begin
    let all = Bytebuf.concat (List.rev s.partial) in
    let total = Bytebuf.length all in
    let pos = ref 0 in
    while total - !pos >= s.chunk do
      push_chunk s (Bytebuf.sub all !pos s.chunk);
      pos := !pos + s.chunk
    done;
    let rest = Bytebuf.sub all !pos (total - !pos) in
    s.partial <- (if Bytebuf.length rest = 0 then [] else [ rest ]);
    s.partial_len <- Bytebuf.length rest
  end;
  kick_pacer s

let finish s =
  if not s.finished then begin
    if s.partial_len > 0 then begin
      push_chunk s (Bytebuf.concat (List.rev s.partial));
      s.partial <- [];
      s.partial_len <- 0
    end;
    s.finished <- true;
    kick_pacer s
  end

let backlog_bytes s = s.backlog

let on_backlog_drain s f =
  if s.backlog = 0 then f () else s.on_drain <- Some f

(* ---------- receiver ---------- *)

let delivered_bytes r = r.delivered

let lost_bytes r = r.lost_bytes_

let observed_loss_ratio r =
  let total = r.delivered + r.lost_bytes_ in
  if total = 0 then 0.0 else float_of_int r.lost_bytes_ /. float_of_int total

let complete r = r.complete_

let missing_seqs r =
  let out = ref [] in
  for seq = r.highest - 1 downto 0 do
    if not (Hashtbl.mem r.seen seq) && not (Hashtbl.mem r.lost seq) then
      out := seq :: !out
  done;
  !out

let check_complete r (s : sender option) ~src ~src_port =
  ignore s;
  match r.total_chunks with
  | Some total when r.highest >= total && missing_seqs r = [] ->
    r.complete_ <- true;
    (* Echo FIN so the sender stops; re-echoed on every FIN retransmit in
       case the echo itself was lost. *)
    Drivers.Udp.sendto r.rudp ~dst:src ~dst_port:src_port ~src_port:r.rport
      (encode_fin ~total_chunks:total ~total_bytes:0);
    if not r.completion_fired then begin
      r.completion_fired <- true;
      match r.on_complete with Some f -> f () | None -> ()
    end
  | _ -> ()

let send_feedback r ~src ~src_port =
  r.since_feedback <- 0;
  Drivers.Udp.sendto r.rudp ~dst:src ~dst_port:src_port ~src_port:r.rport
    (encode_feedback ~highest:r.highest (missing_seqs r))

(* Periodic feedback so tail losses are reported even without traffic;
   armed by the first datagram, disarmed at completion (an idle listener
   schedules nothing). *)
let rec start_tick r =
  if not r.ticking then begin
    r.ticking <- true;
    let sim = Simnet.Node.sim r.rnode in
    let rec tick () =
      Sim.after sim feedback_interval_ns (fun () ->
          if r.complete_ then r.ticking <- false
          else begin
            (match r.peer with
             | Some (src, src_port) ->
               if missing_seqs r <> [] || r.total_chunks <> None then
                 send_feedback r ~src ~src_port
             | None -> ());
            tick ()
          end)
    in
    tick ()
  end

and handle_receiver_dgram r ~src ~src_port buf =
  r.peer <- Some (src, src_port);
  start_tick r;
  match Bytebuf.get_u8 buf 0 with
  | 1 ->
    Simnet.Node.charge r.rnode Calib.vrp_recv_ns;
    let seq = Bytebuf.get_u32 buf 1 in
    let len = Bytebuf.get_u32 buf 5 in
    if not (Hashtbl.mem r.seen seq) then begin
      Hashtbl.replace r.seen seq len;
      if Hashtbl.mem r.lost seq then begin
        (* Arrived after being declared lost: count it back. *)
        r.lost_bytes_ <- r.lost_bytes_ - Hashtbl.find r.lost seq;
        Hashtbl.remove r.lost seq
      end;
      if len > r.chunk_len then r.chunk_len <- len;
      r.delivered <- r.delivered + len;
      if seq >= r.highest then r.highest <- seq + 1;
      (match r.on_chunk with
       | Some f -> f ~offset:(seq * r.chunk_len) (Bytebuf.sub buf data_hdr len)
       | None -> ());
      r.since_feedback <- r.since_feedback + 1;
      if r.since_feedback >= feedback_every then send_feedback r ~src ~src_port
    end;
    check_complete r None ~src ~src_port
  | 3 ->
    let n = Bytebuf.get_u16 buf 1 in
    for i = 0 to n - 1 do
      let seq = Bytebuf.get_u32 buf (3 + (4 * i)) in
      if not (Hashtbl.mem r.seen seq) && not (Hashtbl.mem r.lost seq) then begin
        let assumed = if r.chunk_len > 0 then r.chunk_len else 1 in
        Hashtbl.replace r.lost seq assumed;
        r.lost_bytes_ <- r.lost_bytes_ + assumed;
        if seq >= r.highest then r.highest <- seq + 1
      end
    done;
    check_complete r None ~src ~src_port
  | 4 ->
    let total = Bytebuf.get_u32 buf 1 in
    r.total_chunks <- Some total;
    if total > r.highest then begin
      (* Trailing datagrams may all be lost; surface them as gaps. *)
      r.highest <- total
    end;
    send_feedback r ~src ~src_port;
    check_complete r None ~src ~src_port
  | _ -> ()

let create_receiver sio udp ~port ?on_chunk ?on_complete () =
  let r =
    { rnode = Drivers.Udp.node udp; rudp = udp; rport = port; on_chunk;
      on_complete; seen = Hashtbl.create 512; lost = Hashtbl.create 64;
      highest = 0; delivered = 0; lost_bytes_ = 0; total_chunks = None;
      chunk_len = 0; since_feedback = 0; peer = None; complete_ = false;
      completion_fired = false; ticking = false }
  in
  Netaccess.Sysio.watch_udp sio udp ~port (fun ~src ~src_port buf ->
      handle_receiver_dgram r ~src ~src_port buf);
  r

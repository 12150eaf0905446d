module Bytebuf = Engine.Bytebuf

let log = Logs.Src.create "hostio.stream" ~doc:"real-socket streams"

module Log = (val Logs.src_log log : Logs.LOG)

type event = Established | Readable | Writable | Peer_closed | Reset

(* Received bytes, waiting for [read]: one exact-size chunk per read(2),
   bounded no-copy slices out. *)
module Bq = struct
  type t = { q : Bytebuf.t Queue.t; mutable total : int }

  let create () = { q = Queue.create (); total = 0 }
  let length t = t.total
  let is_empty t = t.total = 0

  let push t b =
    if Bytebuf.length b > 0 then begin
      Queue.push b t.q;
      t.total <- t.total + Bytebuf.length b
    end

  (* Coalesces across chunks like [Drivers.Tcp.read]: when [max] bytes are
     buffered, exactly [max] come out, even if they arrived fragmented —
     fixed-size header parses rely on this. Single-chunk pops stay
     no-copy. *)
  let pop t ~max =
    if t.total = 0 || max <= 0 then None
    else begin
      let parts = ref [] in
      let taken = ref 0 in
      while !taken < max && not (Queue.is_empty t.q) do
        let chunk = Queue.pop t.q in
        let len = Bytebuf.length chunk in
        if !taken + len <= max then begin
          parts := chunk :: !parts;
          taken := !taken + len
        end
        else begin
          let want = max - !taken in
          let front, rest = Bytebuf.split chunk want in
          let others = Queue.create () in
          Queue.transfer t.q others;
          Queue.push rest t.q;
          Queue.transfer others t.q;
          parts := front :: !parts;
          taken := max
        end
      done;
      t.total <- t.total - !taken;
      match !parts with
      | [ one ] -> Some one
      | parts -> Some (Bytebuf.concat (List.rev parts))
    end

  let clear t =
    Queue.clear t.q;
    t.total <- 0
end

type state = Connecting | Estab | Closed

type t = {
  loop : Loop.t;
  fd : Unix.file_descr;
  mutable st : state;
  rx : Bq.t;
  tx : Txring.t;
  rx_hwm : int;
  mutable cb : (event -> unit) option;
  mutable estab_notified : bool;
  mutable rx_eof : bool; (* FIN read from the kernel *)
  mutable peer_closed_fired : bool;
  mutable closing : bool; (* app closed; flushing tx before closing fd *)
  mutable reset : bool;
  mutable want_writable : bool; (* a write filled the buffer; announce space *)
  mutable rx_paused : bool; (* read interest dropped at the high watermark *)
}

let default_buf = 262_144
let read_chunk = 65_536

(* Every read(2) lands in this domain's one scratch block (a loop runs on
   one domain, and the bytes leave the block before any callback runs);
   only the bytes read are copied out, into a chunk of their exact
   size. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create read_chunk)

let emit t ev = match t.cb with None -> () | Some f -> f ev

let is_open t = t.st <> Closed
let readable_bytes t = Bq.length t.rx
let peer_closed t = t.peer_closed_fired || t.reset || (t.rx_eof && Bq.is_empty t.rx)
let held_bytes t = Txring.held_bytes t.tx + Bq.length t.rx

let write_space t =
  if t.st <> Estab || t.closing then 0 else Txring.space t.tx

(* Fully close the descriptor and drop it from the loop. *)
let teardown t =
  if t.st <> Closed then begin
    t.st <- Closed;
    Txring.clear t.tx;
    Loop.unwatch_fd t.loop t.fd;
    (try Unix.close t.fd with Unix.Unix_error _ -> ())
  end

let do_reset t =
  if t.st <> Closed && not t.reset then begin
    t.reset <- true;
    Bq.clear t.rx;
    (* RST on the wire, not a graceful FIN. *)
    (try Unix.setsockopt_optint t.fd Unix.SO_LINGER (Some 0)
     with Unix.Unix_error _ -> ());
    teardown t;
    emit t Reset
  end

let reset t = do_reset t

let fire_peer_closed t =
  if not t.peer_closed_fired && not t.reset then begin
    t.peer_closed_fired <- true;
    (* Both directions done: the fd has nothing left to deliver. *)
    if t.closing && Txring.length t.tx = 0 then teardown t;
    emit t Peer_closed
  end

(* ---------- tx ---------- *)

(* Write from the ring until it drains or the kernel refuses more. A short
   count is not yet a full kernel buffer (one [Unix.single_write] moves at
   most 64 KiB, and a wrapped run stops at the ring's end): only [EAGAIN]
   waits for writability. *)
let rec flush_tx t =
  if t.st = Estab then begin
    let before = Txring.length t.tx in
    let blocked = ref false in
    while (not !blocked) && Txring.length t.tx > 0 do
      match Txring.write_front t.tx (Unix.single_write t.fd) with
      | 0 -> blocked := true
      | _ -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        blocked := true
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        do_reset t;
        blocked := true
    done;
    if t.st = Estab then begin
      if Txring.length t.tx > 0 then
        Loop.set_write t.loop t.fd (Some (fun () -> on_fd_writable t))
      else begin
        Loop.set_write t.loop t.fd None;
        if t.closing then begin
          (* FIN: nothing buffered, close for real. *)
          teardown t
        end
      end;
      let freed = before - Txring.length t.tx in
      if freed > 0 && t.want_writable && write_space t > 0 then begin
        t.want_writable <- false;
        emit t Writable
      end
    end
  end

and on_fd_writable t =
  match t.st with
  | Connecting ->
    (match Unix.getsockopt_error t.fd with
     | None ->
       t.st <- Estab;
       Loop.set_write t.loop t.fd None;
       Loop.set_read t.loop t.fd (Some (fun () -> on_fd_readable t));
       t.estab_notified <- true;
       emit t Established;
       if Txring.length t.tx > 0 then flush_tx t
     | Some _ -> do_reset t)
  | Estab -> flush_tx t
  | Closed -> ()

(* ---------- rx ---------- *)

and on_fd_readable t =
  if t.st = Estab then begin
    let buf = Domain.DLS.get scratch in
    match Unix.read t.fd buf 0 read_chunk with
    | 0 ->
      t.rx_eof <- true;
      Loop.set_read t.loop t.fd None;
      if Bq.is_empty t.rx then fire_peer_closed t
    | n ->
      Bq.push t.rx (Bytebuf.of_bytes (Bytes.sub buf 0 n));
      if Bq.length t.rx >= t.rx_hwm then begin
        (* Backpressure: stop reading; the kernel window fills and pushes
           back on the sender — the host analogue of the sim driver's
           bounded receive buffer. *)
        t.rx_paused <- true;
        Loop.set_read t.loop t.fd None
      end;
      emit t Readable
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> do_reset t
  end

(* ---------- construction ---------- *)

let mk loop fd ~established =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true
   with Unix.Unix_error _ -> () (* socketpairs are not TCP *));
  let t =
    { loop; fd; st = (if established then Estab else Connecting);
      rx = Bq.create (); tx = Txring.create ~cap:default_buf;
      rx_hwm = default_buf; cb = None; estab_notified = false;
      rx_eof = false; peer_closed_fired = false; closing = false;
      reset = false; want_writable = false; rx_paused = false }
  in
  Loop.watch_fd loop fd ~passive:false;
  if established then
    Loop.set_read loop fd (Some (fun () -> on_fd_readable t));
  t

let set_event_cb t f =
  t.cb <- Some f;
  (* Catch-up: announce anything that happened before subscription, from a
     later loop turn so the subscriber finishes wiring first. *)
  let pending_estab = t.st = Estab && not t.estab_notified in
  if pending_estab then t.estab_notified <- true;
  let had_rx = not (Bq.is_empty t.rx) in
  let pending_fin = t.rx_eof && Bq.is_empty t.rx && not t.peer_closed_fired in
  let was_reset = t.reset in
  if pending_estab || had_rx || pending_fin || was_reset then
    Engine.Clock.after (Loop.clock t.loop) 0 (fun () ->
        if was_reset then emit t Reset
        else begin
          if pending_estab then emit t Established;
          if had_rx && not (Bq.is_empty t.rx) then emit t Readable;
          if pending_fin then fire_peer_closed t
        end)

let connect loop ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t = mk loop fd ~established:false in
  Loop.set_write loop fd (Some (fun () -> on_fd_writable t));
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with
   | Unix.Unix_error (Unix.EINPROGRESS, _, _) -> ()
   | Unix.Unix_error _ ->
     Engine.Clock.after (Loop.clock loop) 0 (fun () -> do_reset t));
  t

type listener = {
  lfd : Unix.file_descr;
  lloop : Loop.t;
  mutable lopen : bool;
  lport : int;
}

let listen loop ?(port = 0) accept_cb =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let lport =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Loop.watch_fd loop fd ~passive:true;
  let rec accept_loop () =
    match Unix.accept fd with
    | cfd, _ ->
      accept_cb (mk loop cfd ~established:true);
      accept_loop ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  Loop.set_read loop fd (Some accept_loop);
  { lfd = fd; lloop = loop; lopen = true; lport }

let listener_port l = l.lport

let close_listener l =
  if l.lopen then begin
    l.lopen <- false;
    Loop.unwatch_fd l.lloop l.lfd;
    try Unix.close l.lfd with Unix.Unix_error _ -> ()
  end

let pair loop =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (mk loop a ~established:true, mk loop b ~established:true)

(* ---------- app-side I/O ---------- *)

let writev t bufs =
  if t.st <> Estab || t.closing || t.reset then 0
  else begin
    let space = write_space t in
    let len = List.fold_left (fun a b -> a + Bytebuf.length b) 0 bufs in
    let n = min space len in
    (* A short write, or one that fills the buffer, leaves the producer
       waiting for space: announce it when it reopens. *)
    if n = space then t.want_writable <- true;
    if n > 0 then begin
      (* Copy into the send ring (the kernel-copy analogue): the caller
         keeps ownership of the pieces, accepted bytes survive their reuse,
         and the flush below writes them from the ring. *)
      Txring.push t.tx bufs n;
      flush_tx t
    end;
    n
  end

let write t b = writev t [ b ]

let read t ~max =
  match Bq.pop t.rx ~max with
  | None -> None
  | Some chunk ->
    if t.rx_paused && Bq.length t.rx <= t.rx_hwm / 2 && not t.rx_eof
       && t.st = Estab
    then begin
      t.rx_paused <- false;
      Loop.set_read t.loop t.fd (Some (fun () -> on_fd_readable t))
    end;
    if t.rx_eof && Bq.is_empty t.rx && not t.peer_closed_fired then
      Engine.Clock.after (Loop.clock t.loop) 0 (fun () -> fire_peer_closed t);
    Some chunk

let close t =
  if t.st <> Closed && not t.closing then begin
    t.closing <- true;
    match t.st with
    | Connecting -> teardown t
    | Estab -> if Txring.length t.tx = 0 then teardown t else flush_tx t
    | Closed -> ()
  end

let abort t =
  if t.st <> Closed then begin
    (try Unix.setsockopt_optint t.fd Unix.SO_LINGER (Some 0)
     with Unix.Unix_error _ -> ());
    teardown t
  end

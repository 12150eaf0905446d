module Bytebuf = Engine.Bytebuf
module Proc = Engine.Proc
module Trace = Padico_obs.Trace

let log = Logs.Src.create "vlink"

module Log = (val Logs.src_log log : Logs.LOG)

type event = Connected | Readable | Writable | Peer_closed | Failed of string

type ops = {
  o_write : Bytebuf.t -> int;
  o_read : max:int -> Bytebuf.t option;
  o_readable : unit -> int;
  o_write_space : unit -> int;
  o_close : unit -> unit;
  o_driver : string;
}

type completion = Done of int | Eof | Again | Error of string

type state = Connecting | Connected_st | Closed | Failed_st of string

type req = {
  kind : [ `Read | `Write ];
  buf : Bytebuf.t;
  mutable progress : int;
  mutable result : completion option;
  mutable handler : (completion -> unit) option;
  mutable timer : Engine.Clock.timer; (* [Engine.Clock.none] unless armed *)
  owner : t;
}

and t = {
  vnode : Simnet.Node.t;
  mutable ops : ops option;
  mutable st : state;
  reads : req Queue.t;
  writes : req Queue.t;
  mutable evt_handlers : (event -> unit) list;
  mutable peer_closed : bool;
  writable_waiters : (unit -> unit) Queue.t;
  (* Reentrancy guards: a pump's [o_read]/[o_write] can resume a peer
     process synchronously, and that process may post or complete requests
     on this very link — re-entering the pump mid-iteration would pop a
     request out from under the outer loop. The outer loop's progress pass
     picks up whatever the nested call would have handled. *)
  mutable pumping_reads : bool;
  mutable pumping_writes : bool;
}

let create vnode =
  { vnode; ops = None; st = Connecting; reads = Queue.create ();
    writes = Queue.create (); evt_handlers = []; peer_closed = false;
    writable_waiters = Queue.create (); pumping_reads = false;
    pumping_writes = false }

let node t = t.vnode

let driver_name t =
  match t.ops with Some o -> o.o_driver | None -> "(connecting)"

let is_connected t = t.st = Connected_st

let is_closed t = match t.st with Closed | Failed_st _ -> true | _ -> false

let readable_bytes t =
  match t.ops with Some o -> o.o_readable () | None -> 0

let write_space t =
  match t.ops with Some o -> o.o_write_space () | None -> 0

let op_of_kind = function
  | `Read -> Padico_obs.Event.Read
  | `Write -> Padico_obs.Event.Write

let complete req c =
  if req.result = None then begin
    req.result <- Some c;
    Engine.Clock.cancel req.timer;
    req.timer <- Engine.Clock.none;
    if Trace.on () then begin
      let result, bytes =
        match c with
        | Done n -> ("done", n)
        | Eof -> ("eof", 0)
        | Again -> ("again", 0)
        | Error _ -> ("error", 0)
      in
      Trace.instant req.owner.vnode
        (Padico_obs.Event.Vl_complete
           { op = op_of_kind req.kind; result; bytes })
    end;
    match req.handler with Some f -> f c | None -> ()
  end

let fire t ev = List.iter (fun f -> f ev) (List.rev t.evt_handlers)

let pump_reads t =
  match t.ops with
  | None -> ()
  | Some _ when t.pumping_reads -> ()
  | Some o ->
    t.pumping_reads <- true;
    let progress = ref true in
    while !progress do
      progress := false;
      match Queue.peek_opt t.reads with
      | None -> ()
      | Some req when req.result <> None ->
        (* Already completed while queued (timeout): drop it so it cannot
           swallow bytes meant for its successors. *)
        ignore (Queue.pop t.reads);
        progress := true
      | Some req ->
        let want = Bytebuf.length req.buf in
        (match o.o_read ~max:want with
         | Some data ->
           let n = Bytebuf.length data in
           Bytebuf.blit_dma ~src:data ~src_off:0 ~dst:req.buf ~dst_off:0
             ~len:n;
           ignore (Queue.pop t.reads);
           (* Completion machinery cost: on the receive latency path. *)
           Simnet.Node.cpu_async t.vnode Calib.vlink_op_ns (fun () ->
               complete req (Done n));
           progress := true
         | None ->
           if t.peer_closed then begin
             ignore (Queue.pop t.reads);
             complete req Eof;
             progress := true
           end)
    done;
    t.pumping_reads <- false

let pump_writes t =
  match t.ops with
  | None -> ()
  | Some _ when t.pumping_writes -> ()
  | Some o ->
    t.pumping_writes <- true;
    let progress = ref true in
    while !progress do
      progress := false;
      match Queue.peek_opt t.writes with
      | None -> ()
      | Some req when req.result <> None ->
        ignore (Queue.pop t.writes);
        progress := true
      | Some req ->
        let len = Bytebuf.length req.buf in
        let remaining = len - req.progress in
        if remaining = 0 then begin
          ignore (Queue.pop t.writes);
          complete req (Done len);
          progress := true
        end
        else begin
          let n = o.o_write (Bytebuf.sub req.buf req.progress remaining) in
          if n > 0 then begin
            req.progress <- req.progress + n;
            if req.progress = len then begin
              ignore (Queue.pop t.writes);
              complete req (Done len)
            end;
            progress := true
          end
        end
    done;
    t.pumping_writes <- false

(* Completing a request can resume its waiter synchronously, and the waiter
   may re-enter the VLink (post, poll, close). Empty both queues before
   completing anything so reentrant observers never see a half-failed
   queue or double-complete a request. *)
let fail_all t msg =
  let drain q =
    let l = Queue.fold (fun acc r -> r :: acc) [] q in
    Queue.clear q;
    List.rev l
  in
  let rs = drain t.reads in
  let ws = drain t.writes in
  List.iter (fun req -> complete req (Error msg)) rs;
  List.iter (fun req -> complete req (Error msg)) ws

(* One-shot writable waiters fire after the queued writes have had first
   claim on the space — and unconditionally on terminal events, so a waiter
   re-polls and meets the error instead of hanging forever. *)
let fire_writable_waiters t =
  while not (Queue.is_empty t.writable_waiters) do
    (Queue.pop t.writable_waiters) ()
  done

let notify t ev =
  (match ev with
   | Connected ->
     if t.st = Connecting then t.st <- Connected_st;
     fire_writable_waiters t
   | Readable -> pump_reads t
   | Writable ->
     pump_writes t;
     (match t.ops with
      | Some o when o.o_write_space () > 0 -> fire_writable_waiters t
      | _ -> ())
   | Peer_closed ->
     t.peer_closed <- true;
     pump_reads t;
     (match t.ops with
      | Some o when o.o_write_space () = 0 && not (Queue.is_empty t.writes) ->
        (* The driver's write path died with the peer (MadIO reports zero
           write space once closed): a pending write can never flush — fail
           it rather than leave it hanging forever. TCP keeps write space
           across a half-close, so it is unaffected. *)
        Queue.iter (fun req -> complete req (Error "peer closed")) t.writes;
        Queue.clear t.writes
      | _ -> ());
     fire_writable_waiters t
   | Failed msg ->
     t.st <- Failed_st msg;
     fail_all t msg;
     fire_writable_waiters t);
  fire t ev

let attach_ops t ops =
  (match t.ops with
   | Some _ -> invalid_arg "Vlink.attach_ops: ops already attached"
   | None -> t.ops <- Some ops);
  if Trace.on () then
    Trace.instant t.vnode
      (Padico_obs.Event.Vl_connect { driver = ops.o_driver });
  notify t Connected;
  pump_writes t;
  pump_reads t

let create_connected vnode ops =
  let t = create vnode in
  attach_ops t ops;
  t

(* A deadline is one timer on the node's clock: armed in numbers,
   cancelled by {!complete} in the common case. On expiry the request
   completes [Error "timeout"] and the pump drops its corpse from the queue
   so followers are not blocked behind it. *)
let arm_timeout t req timeout_ns =
  match timeout_ns with
  | None -> ()
  | Some after_ns ->
    if after_ns <= 0 then invalid_arg "Vlink: timeout_ns must be positive";
    req.timer <-
      Engine.Clock.arm (Simnet.Node.clock t.vnode) after_ns (fun () ->
          if req.result = None then begin
            if Trace.on () then
              Trace.instant t.vnode
                (Padico_obs.Event.Vl_timeout
                   { op = op_of_kind req.kind; after_ns });
            complete req (Error "timeout");
            match req.kind with
            | `Read -> pump_reads t
            | `Write -> pump_writes t
          end)

let post_read ?timeout_ns t buf =
  if Bytebuf.length buf = 0 then invalid_arg "Vlink.post_read: empty buffer";
  let req =
    { kind = `Read; buf; progress = 0; result = None; handler = None;
      timer = Engine.Clock.none; owner = t }
  in
  if Trace.on () then
    Trace.instant t.vnode
      (Padico_obs.Event.Vl_post
         { op = Padico_obs.Event.Read; bytes = Bytebuf.length buf });
  (match t.st with
   | Failed_st msg -> complete req (Error msg)
   | Closed -> complete req (Error "closed")
   | Connecting | Connected_st ->
     Queue.push req t.reads;
     arm_timeout t req timeout_ns;
     Simnet.Node.cpu_async t.vnode Calib.vlink_op_ns (fun () -> pump_reads t));
  req

let post_write ?timeout_ns ?(nonblock = false) t buf =
  let req =
    { kind = `Write; buf; progress = 0; result = None; handler = None;
      timer = Engine.Clock.none; owner = t }
  in
  if Trace.on () then
    Trace.instant t.vnode
      (Padico_obs.Event.Vl_post
         { op = Padico_obs.Event.Write; bytes = Bytebuf.length buf });
  (match t.st with
   | Failed_st msg -> complete req (Error msg)
   | Closed -> complete req (Error "closed")
   | Connecting | Connected_st ->
     if t.peer_closed
        && (match t.ops with Some o -> o.o_write_space () = 0 | None -> false)
     then
       (* Same dead-write-path rule as the [Peer_closed] notification:
          accepting the request would strand it forever. *)
       complete req (Error "peer closed")
     else if nonblock then begin
       (* EAGAIN semantics: one driver attempt, never queued. A partial
          acceptance completes [Done n] with n < length; no space at all
          (or not yet connected) completes [Again]. *)
       Simnet.Node.charge t.vnode Calib.vlink_op_ns;
       match t.ops with
       | None -> complete req Again
       | Some o ->
         if Bytebuf.length buf = 0 then complete req (Done 0)
         else begin
           let n = o.o_write buf in
           if n > 0 then complete req (Done n) else complete req Again
         end
     end
     else begin
       Queue.push req t.writes;
       arm_timeout t req timeout_ns;
       (* Post machinery cost: on the send latency path. *)
       Simnet.Node.cpu_async t.vnode Calib.vlink_op_ns (fun () ->
           pump_writes t)
     end);
  req

let on_writable t f =
  match t.st with
  | Closed | Failed_st _ -> f ()
  | Connecting -> Queue.push f t.writable_waiters
  | Connected_st ->
    (match t.ops with
     | Some o when o.o_write_space () > 0 && Queue.is_empty t.writes -> f ()
     | _ -> Queue.push f t.writable_waiters)

let poll req = req.result

let set_handler req f =
  match req.result with
  | Some c -> f c
  | None -> req.handler <- Some f

let await req =
  match req.result with
  | Some c -> c
  | None -> Proc.suspend (fun resume -> req.handler <- Some resume)

let close t =
  match t.st with
  | Closed | Failed_st _ -> ()
  | Connecting | Connected_st ->
    (match t.ops with Some o -> o.o_close () | None -> ());
    t.st <- Closed;
    (* Pending reads see end-of-stream; pending writes are aborted. *)
    Queue.iter (fun req -> complete req Eof) t.reads;
    Queue.clear t.reads;
    Queue.iter (fun req -> complete req (Error "closed")) t.writes;
    Queue.clear t.writes;
    fire_writable_waiters t

let on_event t f = t.evt_handlers <- f :: t.evt_handlers

let await_connected t =
  match t.st with
  | Connected_st -> Ok ()
  | Failed_st m -> Error m
  | Closed -> Error "closed"
  | Connecting ->
    (* The handler stays registered for the VLink's lifetime, but the
       continuation must fire exactly once: a session that connects and
       later fails would otherwise resume it a second time. *)
    Proc.suspend (fun resume ->
        let fired = ref false in
        let once r =
          if not !fired then begin
            fired := true;
            resume r
          end
        in
        on_event t (function
          | Connected -> once (Ok ())
          | Failed m -> once (Error m)
          | Readable | Writable | Peer_closed -> ()))

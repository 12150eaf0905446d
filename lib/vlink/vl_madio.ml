module Bytebuf = Engine.Bytebuf
module Madio = Netaccess.Madio

let log = Logs.Src.create "vlink.madio"

module Log = (val Logs.src_log log : Logs.LOG)

let driver_name = "madio"

let control_lchannel = 0xFFF0

(* Control/data messages, all on the reserved logical channel:
   SYN    [u8 1 | u32 conn | u32 port]
   SYNACK [u8 2 | u32 conn | u32 peer-conn]
   RST    [u8 3 | u32 conn]
   DATA   [u8 4 | u32 conn | bytes]
   CLOSE  [u8 5 | u32 conn]
   where [conn] is always the {e receiver's} connection id (except SYN,
   where it is the initiator's). *)

type conn = {
  vl : Vl.t;
  local_id : int;
  mutable peer_node : int;
  mutable peer_id : int; (* -1 until SYNACK *)
  rx : Streamq.t;
  mutable closed : bool;
  mutable rx_released : bool;
      (* remaining rx credits returned in bulk at teardown *)
}

type inst = {
  mio : Madio.t;
  lchan : Madio.lchannel;
  conns : (int, conn) Hashtbl.t;
  listeners : (int, Vl.t -> unit) Hashtbl.t;
  mutable next_id : int;
}

let instances : (int * int, inst) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let () =
  Engine.Lifecycle.on_reset (fun () ->
      Mutex.protect registry_lock (fun () -> Hashtbl.reset instances))

(* Every message on the control lchannel starts with this header; under
   credit flow control its cost is granted back the moment the dispatcher
   runs, while DATA payload bytes are granted only when the application
   drains them from the connection's rx queue (manual-grant mode: the
   dispatcher is not the real consumer here). *)
let ctl_header_len = 9

let header ~kind ~conn_id ~extra =
  let b = Bytebuf.create 9 in
  Bytebuf.set_u8 b 0 kind;
  Bytebuf.set_u32 b 1 conn_id;
  Bytebuf.set_u32 b 5 extra;
  b

let send_ctl t ~dst ~kind ~conn_id ~extra =
  (* Control frames may be triggered from the receive dispatcher (an
     incoming SYN answered while the carrier just dropped): swallow the
     fail-fast signal here — connection teardown is driven by the link
     watcher, not by a lost control frame. *)
  try Madio.send t.lchan ~dst (header ~kind ~conn_id ~extra)
  with Madeleine.Mad.Link_down _ -> ()

(* Teardown: whatever sits unread in the rx queue will never be drained
   through o_read's grant path, so return those credits in one go —
   otherwise the per-peer window (shared by every conn on this node pair)
   shrinks permanently. *)
let release_rx t c =
  if not c.rx_released then begin
    c.rx_released <- true;
    if c.peer_node >= 0 then
      Madio.grant t.lchan ~src:c.peer_node (Streamq.length c.rx)
  end

(* Bytes of credit one payload byte costs on the wire. *)
let data_space t c =
  if c.closed then 0
  else
    let s = Madio.send_space t.lchan ~dst:c.peer_node in
    if s = max_int then max_int else Stdlib.max 0 (s - ctl_header_len)

let ops_of_conn t c =
  { Vl.o_write =
      (fun buf ->
         if c.closed then 0
         else begin
           (* SAN is reliable and fast: a write becomes one MadIO message
              carrying the 9-byte data header combined with the payload.
              Under credit flow control accept only what the per-peer
              window covers; when the window is shut, park until the
              receiver's grant arrives and resurface as [Writable]. *)
           let n = min (Bytebuf.length buf) (data_space t c) in
           if n <= 0 then begin
             (* Wake only once a payload byte fits past the data header. *)
             Madio.on_credit t.lchan ~dst:c.peer_node
               ~min_space:(ctl_header_len + 1) (fun () ->
                 if not c.closed then Vl.notify c.vl Vl.Writable);
             0
           end
           else
             match
               Madio.sendv t.lchan ~dst:c.peer_node
                 [ header ~kind:4 ~conn_id:c.peer_id ~extra:0;
                   (if n = Bytebuf.length buf then buf else Bytebuf.sub buf 0 n) ]
             with
             | () -> n
             | exception Madeleine.Mad.Link_down _ ->
               (* Carrier just dropped; accept nothing — the link watcher
                  is about to fail this connection. *)
               0
         end);
    o_read =
      (fun ~max ->
         match Streamq.pop c.rx ~max with
         | Some b as r ->
           (* The application consumed payload bytes: hand the credits
              back to the sender (manual-grant mode). *)
           if not c.rx_released then
             Madio.grant t.lchan ~src:c.peer_node (Bytebuf.length b);
           r
         | None -> None);
    o_readable = (fun () -> Streamq.length c.rx);
    o_write_space = (fun () -> data_space t c);
    o_close =
      (fun () ->
         if not c.closed then begin
           c.closed <- true;
           release_rx t c;
           if c.peer_id >= 0 then
             send_ctl t ~dst:c.peer_node ~kind:5 ~conn_id:c.peer_id ~extra:0
         end);
    o_driver = driver_name }

let fresh_conn t ~vl ~peer_node ~peer_id =
  let local_id = t.next_id in
  t.next_id <- local_id + 1;
  let c =
    { vl; local_id; peer_node; peer_id; rx = Streamq.create ();
      closed = false; rx_released = false }
  in
  Hashtbl.replace t.conns local_id c;
  c

let handle t ~src (msg : Bytebuf.t) =
  let kind = Bytebuf.get_u8 msg 0 in
  let conn_id = Bytebuf.get_u32 msg 1 in
  (* Manual-grant mode: return the control-header cost now; DATA payload
     credits come back from o_read as the application drains. *)
  Madio.grant t.lchan ~src (min ctl_header_len (Bytebuf.length msg));
  match kind with
  | 1 ->
    (* SYN: conn_id is the initiator's id, extra is the port. *)
    let port = Bytebuf.get_u32 msg 5 in
    (match Hashtbl.find_opt t.listeners port with
     | None -> send_ctl t ~dst:src ~kind:3 ~conn_id ~extra:0
     | Some accept ->
       let vl = Vl.create (Madio.node t.mio) in
       let c = fresh_conn t ~vl ~peer_node:src ~peer_id:conn_id in
       send_ctl t ~dst:src ~kind:2 ~conn_id ~extra:c.local_id;
       Vl.attach_ops vl (ops_of_conn t c);
       accept vl)
  | 2 ->
    (* SYNACK: conn_id is ours, extra is the peer's. *)
    (match Hashtbl.find_opt t.conns conn_id with
     | Some c when c.peer_id < 0 ->
       c.peer_id <- Bytebuf.get_u32 msg 5;
       Vl.attach_ops c.vl (ops_of_conn t c)
     | _ -> ())
  | 3 ->
    (match Hashtbl.find_opt t.conns conn_id with
     | Some c ->
       Hashtbl.remove t.conns conn_id;
       release_rx t c;
       Vl.notify c.vl (Vl.Failed "connection refused")
     | None -> ())
  | 4 ->
    let payload = Bytebuf.sub msg 9 (Bytebuf.length msg - 9) in
    (match Hashtbl.find_opt t.conns conn_id with
     | Some c when not c.rx_released ->
       Streamq.push c.rx payload;
       Vl.notify c.vl Vl.Readable
     | _ ->
       (* No live consumer: the payload is dropped, so its credits go
          straight back. *)
       Madio.grant t.lchan ~src (Bytebuf.length payload))
  | 5 ->
    (match Hashtbl.find_opt t.conns conn_id with
     | Some c ->
       c.closed <- true;
       Vl.notify c.vl Vl.Peer_closed
     | None -> ())
  | k -> Log.err (fun m -> m "vl_madio: unknown message kind %d" k)

let get mio =
  let key =
    ( Simnet.Node.uid (Madio.node mio),
      Simnet.Segment.uid (Madeleine.Mad.segment (Madio.mad mio)) )
  in
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt instances key with
      | Some t -> t
      | None ->
        let lchan = Madio.open_lchannel mio ~id:control_lchannel in
        (* The dispatcher only parks payload in per-connection queues; the
           real consumer is the application above, so credits are granted
           manually (header now, payload on drain). *)
        Madio.set_manual_grant lchan true;
        let t =
          { mio; lchan; conns = Hashtbl.create 16; listeners = Hashtbl.create 8;
            next_id = 0 }
        in
        Madio.set_recv lchan (fun ~src msg -> handle t ~src msg);
        (* Simulated NIC link-status interrupt: MadIO stays fail-fast — when
           the carrier drops, every open connection dies immediately (the
           resilience layer above may then re-select another adapter) instead
           of hanging on a silent link. *)
        Simnet.Segment.on_link_state (Madeleine.Mad.segment (Madio.mad mio))
          (Madio.node mio) (fun up ->
             if not up then
               Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
               |> List.sort (fun a b -> compare a.local_id b.local_id)
               |> List.iter (fun c ->
                   if not c.closed then begin
                     c.closed <- true;
                     release_rx t c;
                     Vl.notify c.vl (Vl.Failed "link down")
                   end));
        Hashtbl.replace instances key t;
        t)

let connect mio ~dst ~port =
  let t = get mio in
  let vl = Vl.create (Madio.node mio) in
  let c = fresh_conn t ~vl ~peer_node:(Simnet.Node.id dst) ~peer_id:(-1) in
  send_ctl t ~dst:(Simnet.Node.id dst) ~kind:1 ~conn_id:c.local_id ~extra:port;
  vl

let listen mio ~port accept =
  let t = get mio in
  if Hashtbl.mem t.listeners port then
    invalid_arg (Printf.sprintf "Vl_madio.listen: port %d already bound" port);
  Hashtbl.replace t.listeners port accept

let unlisten mio ~port =
  let t = get mio in
  Hashtbl.remove t.listeners port

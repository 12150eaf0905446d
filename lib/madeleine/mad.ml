module Bytebuf = Engine.Bytebuf

type pack_mode = Send_safer | Send_later | Send_cheaper

type unpack_mode = Receive_express | Receive_cheaper

exception No_channel_left

exception Link_down of string

type channel = { mad : t; gm_chan : Drivers.Gm.channel }

and t = {
  gm : Drivers.Gm.t;
  mnode : Simnet.Node.t;
  seg : Simnet.Segment.t;
  mutable sent : int;
  mutable received : int;
}

type outgoing = {
  chan : channel;
  dst : int;
  mutable pieces : Bytebuf.t list; (* reversed *)
  mutable closed : bool;
}

type incoming = {
  payload : Bytebuf.t;
  src : int;
  mutable pos : int;
}

let instances : (int * int, t) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let () =
  Engine.Lifecycle.on_reset (fun () ->
      Mutex.protect registry_lock (fun () -> Hashtbl.reset instances))

let init seg node =
  let key = (Simnet.Segment.uid seg, Simnet.Node.id node) in
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt instances key with
      | Some t -> t
      | None ->
        let t =
          { gm = Drivers.Gm.attach seg node; mnode = node; seg; sent = 0;
            received = 0 }
        in
        Hashtbl.replace instances key t;
        t)

let node t = t.mnode
let segment t = t.seg
let max_channels t = Drivers.Gm.max_channels t.gm

let open_channel t ~id =
  match Drivers.Gm.open_channel t.gm ~id with
  | gm_chan -> { mad = t; gm_chan }
  | exception Drivers.Gm.No_channel_left -> raise No_channel_left

let close_channel ch = Drivers.Gm.close_channel ch.gm_chan

let begin_packing ch ~dst = { chan = ch; dst; pieces = []; closed = false }

let pack out ?(mode = Send_cheaper) buf =
  if out.closed then invalid_arg "Mad.pack: message already sent";
  let piece =
    match mode with
    | Send_safer ->
      (* Caller may overwrite its buffer immediately: take a copy now and
         charge the memcpy. *)
      Simnet.Node.charge (node out.chan.mad)
        (int_of_float
           (Calib.memcpy_per_byte_ns *. float_of_int (Bytebuf.length buf)));
      Bytebuf.copy buf
    | Send_later | Send_cheaper -> buf
  in
  out.pieces <- piece :: out.pieces

let end_packing ?on_tx out =
  if out.closed then invalid_arg "Mad.end_packing: message already sent";
  let t = out.chan.mad in
  (* Parallel-oriented fail-fast: a SAN either works or the job aborts.
     Detect a dead link synchronously at send time instead of letting the
     message vanish and the peer hang. The message is left unsent (not
     marked closed) so a caller that survives may retry after link-up. *)
  if Simnet.Segment.is_down t.seg t.mnode then
    raise (Link_down (Simnet.Segment.name t.seg));
  out.closed <- true;
  t.sent <- t.sent + 1;
  Simnet.Node.cpu_async t.mnode Calib.mad_send_ns (fun () ->
      Drivers.Gm.sendv out.chan.gm_chan ~dst:out.dst (List.rev out.pieces);
      (* Send completion: the driver has consumed (DMA-gathered) every
         piece it does not reference by address, so callers reclaiming
         pooled buffers they packed may do it here. *)
      match on_tx with Some f -> f () | None -> ())

let begin_unpacking (_ : incoming) = ()

let unpack inc ?(mode = Receive_express) n =
  ignore mode;
  if n < 0 || inc.pos + n > Bytebuf.length inc.payload then
    invalid_arg
      (Printf.sprintf "Mad.unpack: %d bytes requested, %d remain" n
         (Bytebuf.length inc.payload - inc.pos));
  let piece = Bytebuf.sub inc.payload inc.pos n in
  inc.pos <- inc.pos + n;
  piece

let end_unpacking (_ : incoming) = ()

let remaining inc = Bytebuf.length inc.payload - inc.pos

let incoming_src inc = inc.src

let incoming_length inc = Bytebuf.length inc.payload

let set_recv ch f =
  let t = ch.mad in
  Drivers.Gm.set_recv ch.gm_chan (fun ~src payload ->
      Simnet.Node.cpu_async t.mnode Calib.mad_recv_ns (fun () ->
          t.received <- t.received + 1;
          f { payload; src; pos = 0 }))

let messages_sent t = t.sent
let messages_received t = t.received

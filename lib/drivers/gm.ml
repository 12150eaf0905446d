module Bytebuf = Engine.Bytebuf

type Simnet.Packet.content +=
  | Gm_frag of {
      chan : int;
      msg_id : int;
      frag : int;
      nfrags : int;
      total : int;
      data : Bytebuf.t;
      owned : bool;
          (* [data] was gathered for this frame alone: no one else holds
             it, so the receiver may keep it. Otherwise it is a view of
             the sender's buffer. *)
    }

(* Reassembly state for one incoming multi-fragment message. *)
type partial = {
  buffer : Bytebuf.t;
  mutable received : int; (* fragments seen so far *)
  nfrags : int;
}

type channel = {
  port : t;
  id : int;
  mutable recv : (src:int -> Bytebuf.t -> unit) option;
  mutable next_msg_id : int;
  partials : (int * int, partial) Hashtbl.t; (* (src, msg_id) -> partial *)
  mutable open_ : bool;
}

and t = {
  seg : Simnet.Segment.t;
  node : Simnet.Node.t;
  channels : channel option array; (* by id, [max_channels] slots *)
  mutable sent : int;
  mutable received : int;
}

exception No_channel_left

let ports : (int * int, t) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let () =
  Engine.Lifecycle.on_reset (fun () ->
      Mutex.protect registry_lock (fun () -> Hashtbl.reset ports))

let node t = t.node
let segment t = t.seg

let channel_budget seg =
  match (Simnet.Segment.model seg).Simnet.Linkmodel.class_ with
  | Simnet.Linkmodel.San ->
    if (Simnet.Segment.model seg).Simnet.Linkmodel.name = "SCI" then 1 else 2
  | Simnet.Linkmodel.Loop -> 8
  | Simnet.Linkmodel.Lan | Simnet.Linkmodel.Wan | Simnet.Linkmodel.Lossy_wan ->
    invalid_arg "Gm.attach: GM requires a SAN or loopback segment"

let max_channels t = Array.length t.channels

let complete t ch ~src buffer =
  t.received <- t.received + 1;
  match ch.recv with Some f -> f ~src buffer | None -> ()

(* Each fragment's completion handling costs host CPU. A single-fragment
   message (every Myrinet frame: the MTU is 32 KB) completes on its own,
   with no reassembly state: a frame that owns its bytes hands them up as
   they are, a view of the sender's buffer is DMA-placed into a fresh one
   on arrival, since the sender may reuse its buffer from then on. *)
let handle_frag t (pkt : Simnet.Packet.t) =
  match pkt.Simnet.Packet.content with
  | Gm_frag f ->
    (match t.channels.(f.chan) with
     | None -> () (* channel closed: hardware drops silently *)
     | Some ch ->
       let src = pkt.Simnet.Packet.src in
       if f.nfrags = 1 then begin
         let buffer =
           if f.owned then f.data
           else begin
             let b = Bytebuf.create_uninit f.total in
             Bytebuf.blit_dma ~src:f.data ~src_off:0 ~dst:b ~dst_off:0
               ~len:f.total;
             b
           end
         in
         Simnet.Node.cpu_async t.node Calib.gm_recv_ns (fun () ->
             complete t ch ~src buffer)
       end
       else begin
         let key = (src, f.msg_id) in
         let partial =
           match Hashtbl.find_opt ch.partials key with
           | Some p -> p
           | None ->
             let p =
               { buffer = Bytebuf.create_uninit f.total; received = 0;
                 nfrags = f.nfrags }
             in
             Hashtbl.replace ch.partials key p;
             p
         in
         (* DMA placement into the posted buffer: no host copy counted. *)
         let off =
           f.frag * (Simnet.Segment.model t.seg).Simnet.Linkmodel.mtu
         in
         Bytebuf.blit_dma ~src:f.data ~src_off:0 ~dst:partial.buffer
           ~dst_off:off ~len:(Bytebuf.length f.data);
         partial.received <- partial.received + 1;
         Simnet.Node.cpu_async t.node Calib.gm_recv_ns (fun () ->
             if partial.received = partial.nfrags
                && Hashtbl.mem ch.partials key then begin
               Hashtbl.remove ch.partials key;
               complete t ch ~src partial.buffer
             end)
       end)
  | _ -> ()

let attach seg node =
  let key = (Simnet.Segment.uid seg, Simnet.Node.id node) in
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt ports key with
      | Some t -> t
      | None ->
        let t =
          { seg; node; channels = Array.make (channel_budget seg) None;
            sent = 0; received = 0 }
        in
        Simnet.Segment.set_handler seg node ~proto:Simnet.Packet.Proto.gm
          (handle_frag t);
        Hashtbl.replace ports key t;
        t)

let open_channel t ~id =
  if id < 0 || id >= max_channels t then raise No_channel_left;
  if Option.is_some t.channels.(id) then
    invalid_arg (Printf.sprintf "Gm.open_channel: channel %d already open" id);
  let ch =
    { port = t; id; recv = None; next_msg_id = 0;
      partials = Hashtbl.create 8; open_ = true }
  in
  t.channels.(id) <- Some ch;
  ch

let close_channel ch =
  if ch.open_ then begin
    ch.open_ <- false;
    ch.port.channels.(ch.id) <- None
  end

let channel_id ch = ch.id

let channels_in_use t =
  Array.fold_left (fun n c -> if Option.is_some c then n + 1 else n) 0
    t.channels

let set_recv ch f = ch.recv <- Some f

(* Read [len] logical bytes starting at stream offset [off] from an
   iovec, and whether the frame owns them. A range inside one entry is a
   view of it (no copy); a range straddling entries is gathered by the NIC
   into a buffer of the frame's own (uncounted DMA blit). *)
let iovec_slice iov ~off ~len =
  let rec skip pos = function
    | part :: rest when pos + Bytebuf.length part <= off ->
      skip (pos + Bytebuf.length part) rest
    | l -> (pos, l)
  in
  match skip 0 iov with
  | pos, part :: _ when len > 0 && off + len <= pos + Bytebuf.length part ->
    (Bytebuf.sub part (off - pos) len, false)
  | pos, l ->
    let g = Bytebuf.create_uninit len in
    let rec gather pos = function
      | part :: rest when pos < off + len ->
        let plen = Bytebuf.length part in
        let lo = max off pos and hi = min (off + len) (pos + plen) in
        if hi > lo then
          Bytebuf.blit_dma ~src:part ~src_off:(lo - pos) ~dst:g
            ~dst_off:(lo - off) ~len:(hi - lo);
        gather (pos + plen) rest
      | _ -> ()
    in
    gather pos l;
    (g, true)

let sendv ch ~dst iov =
  if not ch.open_ then invalid_arg "Gm.send: channel is closed";
  let t = ch.port in
  let mtu = (Simnet.Segment.model t.seg).Simnet.Linkmodel.mtu in
  let total = List.fold_left (fun acc b -> acc + Bytebuf.length b) 0 iov in
  let nfrags = if total = 0 then 1 else (total + mtu - 1) / mtu in
  let msg_id = ch.next_msg_id in
  ch.next_msg_id <- ch.next_msg_id + 1;
  t.sent <- t.sent + 1;
  for frag = 0 to nfrags - 1 do
    let off = frag * mtu in
    let len = min mtu (total - off) in
    let data, owned = iovec_slice iov ~off ~len in
    (* Each fragment costs a DMA-post on the host CPU, then hits the wire. *)
    Simnet.Node.cpu_async t.node Calib.gm_send_ns (fun () ->
        Simnet.Segment.send t.seg
          (Simnet.Packet.make ~src:(Simnet.Node.id t.node) ~dst
             ~proto:Simnet.Packet.Proto.gm ~size:len
             (Gm_frag
                { chan = ch.id; msg_id; frag; nfrags; total; data; owned })))
  done

let send ch ~dst payload = sendv ch ~dst [ payload ]

let messages_sent t = t.sent
let messages_received t = t.received

module Bytebuf = Engine.Bytebuf
module Mad = Madeleine.Mad
module Stats = Engine.Stats
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics

let log = Logs.Src.create "netaccess.madio"

module Log = (val Logs.src_log log : Logs.LOG)

let magic = 0xAD10

(* One (peer, logical channel) flow: its packets posted to Madeleine but
   not yet send-completed, and the sub-threshold messages coalescing
   behind them. Invariant: a non-empty batch implies [in_flight > 0] —
   every send completion flushes the batch. *)
type flow = {
  f_dst : int;
  f_lchan : int;
  mutable in_flight : int; (* packets between end_packing and on_tx *)
  mutable parts : (Bytebuf.t list * int) list; (* (iov, len), newest first *)
  mutable bytes : int; (* payload bytes queued *)
  mutable count : int;
}

type lchannel = {
  owner : t;
  id : int;
  flows : (int, flow) Hashtbl.t; (* dst -> flow *)
  mutable recv : (src:int -> Bytebuf.t -> unit) option;
  mutable open_ : bool;
  mutable manual_grant : bool;
  pending_rx : (int * Bytebuf.t) Queue.t;
      (* Messages that arrived on the open channel before [set_recv]
         installed a receiver — dispatch order is arbitrated, so a peer's
         first message can overtake the local registration. Flushed, in
         order, when the receiver appears. *)
}

and t = {
  mio_mad : Mad.t;
  mio_node : Simnet.Node.t;
  core : Na_core.t;
  hw_chan : Mad.channel;
  lchannels : (int, lchannel) Hashtbl.t;
  (* In separate-header mode a header message announces the next payload
     message from the same source. *)
  pending_header : (int, int) Hashtbl.t; (* src -> logical channel *)
  mutable combining : bool;
  (* Credit-based flow control (0 = disabled). Credits count payload
     bytes per (peer, logical channel) flow; grants ride in the combined
     header, so steady bidirectional traffic pays zero extra messages. *)
  mutable window : int;
  credits : (int * int, int ref) Hashtbl.t; (* (dst, lchan) -> sendable *)
  grants : (int * int, int ref) Hashtbl.t; (* (src, lchan) -> ungranted *)
  credit_waiters : (int * int, (int * (unit -> unit)) Queue.t) Hashtbl.t;
      (* (min space required, one-shot callback) *)
  sent : Stats.Counter.t;
  received : Stats.Counter.t;
  credit_msgs : Stats.Counter.t;
  credit_stalls : Stats.Counter.t;
  batched : Stats.Counter.t; (* messages in packets of >= 2 messages *)
  batches : Stats.Counter.t; (* packets carrying >= 2 messages *)
  pkts_saved : Stats.Counter.t; (* packets avoided: sum of (count - 1) *)
}

let instances : (int * int, t) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let () =
  Engine.Lifecycle.on_reset (fun () ->
      Mutex.protect registry_lock (fun () -> Hashtbl.reset instances))

let node t = t.mio_node
let mad t = t.mio_mad

let header_len = Calib.madio_header_bytes

(* Header layout (14 bytes): magic u16 | lchannel u16 | length u32 |
   combined u8 | credit u32 | count u8. [count] is the coalescing
   sub-message count: 0 (and 1) mean a plain single-message payload,
   while count >= 2 announces a batch of [u16 sublen | bytes]
   records. Pooled headers come back dirty, so every byte is written
   explicitly here. *)
let encode_header ?(pooled = false) ~lchan ~len ~combined ~credit ~count () =
  let h =
    if pooled then Bytebuf.Pool.alloc header_len
    else Bytebuf.create header_len
  in
  Bytebuf.set_u16 h 0 magic;
  Bytebuf.set_u16 h 2 lchan;
  Bytebuf.set_u32 h 4 len;
  Bytebuf.set_u8 h 8 (if combined then 1 else 0);
  Bytebuf.set_u32 h 9 credit;
  Bytebuf.set_u8 h 13 count;
  h

(* -- credit bookkeeping ------------------------------------------------- *)

let enabled t = t.window > 0

let cell tbl key ~init =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref init in
    Hashtbl.replace tbl key r;
    r

(* Sender-side balance for the flow to [dst] on [lchan]; starts at the
   local window (configurations are assumed symmetric). *)
let credit_cell t ~dst ~lchan = cell t.credits (dst, lchan) ~init:t.window

let grant_cell t ~src ~lchan = cell t.grants (src, lchan) ~init:0

let flow_event t action ~lchan bytes =
  if Trace.on () then
    Trace.instant t.mio_node
      (Padico_obs.Event.Flow
         { action; place = Printf.sprintf "madio.lchan%d" lchan; bytes })

(* Take the accumulated grant for the reverse flow, to piggyback it on an
   outgoing header. *)
let take_grant t ~dst ~lchan =
  if not (enabled t) then 0
  else begin
    let g = grant_cell t ~src:dst ~lchan in
    let v = !g in
    g := 0;
    v
  end

let credit_arrived t ~src ~lchan n =
  if n > 0 && enabled t then begin
    let c = credit_cell t ~dst:src ~lchan in
    c := !c + n;
    flow_event t "credit.grant" ~lchan n;
    match Hashtbl.find_opt t.credit_waiters (src, lchan) with
    | None -> ()
    | Some q ->
      (* One-shot waiters: run those whose space threshold is now met
         (re-registration re-checks); keep the rest parked — waking a
         waiter below its threshold would spin it in a notify loop. *)
      let keep = Queue.create () in
      while not (Queue.is_empty q) do
        let ((min_space, f) as w) = Queue.pop q in
        if !c >= min_space then f () else Queue.push w keep
      done;
      Queue.transfer keep q
  end

(* -- small-message coalescing ------------------------------------------- *)

let agg_event t action ~lchan ~msgs ~bytes =
  if Trace.on () then
    Trace.instant t.mio_node
      (Padico_obs.Event.Agg { action; lchannel = lchan; msgs; bytes })

let flow lc ~dst =
  match Hashtbl.find_opt lc.flows dst with
  | Some f -> f
  | None ->
    let f =
      { f_dst = dst; f_lchan = lc.id; in_flight = 0; parts = []; bytes = 0;
        count = 0 }
    in
    Hashtbl.replace lc.flows dst f;
    f

(* Post one packet of flow [f]. It is in flight until Madeleine's send
   completion, which reclaims its [pooled] slabs and sends whatever
   coalesced behind it meanwhile. A packet refused at [end_packing] (link
   down) never was in flight, so the flow cannot wedge on it. *)
let rec post t f out ~pooled =
  f.in_flight <- f.in_flight + 1;
  try
    Mad.end_packing out ~on_tx:(fun () ->
        List.iter Bytebuf.Pool.release pooled;
        f.in_flight <- f.in_flight - 1;
        flush_batch t f ~reason:"cork")
  with e ->
    f.in_flight <- f.in_flight - 1;
    List.iter Bytebuf.Pool.release pooled;
    raise e

(* Emit one message in the plain combined-header format (count byte 0).
   When a payload follows, the header rides in a pooled slab: the payload
   pieces in the same driver fragment force the gather copy, so the slab
   is dead at send completion and reclaimed there. A payload-less header
   would travel by reference, so it takes a fresh buffer instead. *)
and emit_combined t f ~len ~credit iov =
  let pooled = len > 0 in
  let hdr =
    encode_header ~pooled ~lchan:f.f_lchan ~len ~combined:true ~credit
      ~count:0 ()
  in
  let out = Mad.begin_packing t.hw_chan ~dst:f.f_dst in
  Mad.pack out hdr;
  List.iter (Mad.pack out) iov;
  Simnet.Node.charge t.mio_node Calib.madio_combined_ns;
  post t f out ~pooled:(if pooled then [ hdr ] else [])

(* Push the flow's batch onto the wire as one Madeleine packet. A batch of
   one goes out in the plain format, untraced — the wire format and the
   trace only change when a packet is saved. Any grant accumulated for
   the reverse flow rides the batch header for free. *)
and flush_batch t f ~reason =
  if f.count > 0 then begin
    let parts = List.rev f.parts in
    let count = f.count and bytes = f.bytes in
    f.parts <- [];
    f.count <- 0;
    f.bytes <- 0;
    let lchan = f.f_lchan and dst = f.f_dst in
    let credit = take_grant t ~dst ~lchan in
    try
      if count = 1 then begin
        let iov, len = List.hd parts in
        emit_combined t f ~len ~credit iov
      end
      else begin
        if Trace.on () then
          agg_event t ("flush." ^ reason) ~lchan ~msgs:count ~bytes;
        let total = bytes + (2 * count) in
        let hdr =
          encode_header ~pooled:true ~lchan ~len:total ~combined:true
            ~credit ~count ()
        in
        let subs = Bytebuf.Pool.alloc (2 * count) in
        let out = Mad.begin_packing t.hw_chan ~dst in
        Mad.pack out hdr;
        List.iteri
          (fun i (iov, len) ->
             let p = Bytebuf.sub subs (2 * i) 2 in
             Bytebuf.set_u16 p 0 len;
             Mad.pack out p;
             List.iter (Mad.pack out) iov)
          parts;
        Simnet.Node.charge t.mio_node
          (Calib.madio_combined_ns + (count * Calib.madio_agg_permsg_ns));
        post t f out ~pooled:[ hdr; subs ];
        Stats.Counter.incr t.batches;
        Stats.Counter.add t.batched count;
        Stats.Counter.add t.pkts_saved (count - 1)
      end
    with Mad.Link_down _ ->
      (* Fail-fast SAN semantics: the batch is dropped wholesale, exactly
         like a message in flight when the carrier drops; the link watcher
         tears down the users above. *)
      ()
  end

(* Coalesce one sub-threshold message into the flow's batch, first
   sending the batch if the message would overflow it. *)
let queue t f iov len =
  if
    f.count >= 255
    || (f.count > 0
        && f.bytes + len + (2 * (f.count + 1))
           > Calib.madio_agg_max_batch_bytes)
  then flush_batch t f ~reason:"size";
  f.parts <- (iov, len) :: f.parts;
  f.count <- f.count + 1;
  f.bytes <- f.bytes + len;
  if f.count >= 2 then
    agg_event t "queue" ~lchan:f.f_lchan ~msgs:f.count ~bytes:f.bytes

(* Queue the accumulated grant and flush it explicitly when it gets large.
   Normally grants piggyback on reverse traffic for free; the explicit
   credit-only message (no payload) is the fallback for one-way flows, sent
   at half-window so the sender never quite runs dry. *)
let rec add_grant t lc ~src n =
  if n > 0 && enabled t then begin
    let g = grant_cell t ~src ~lchan:lc.id in
    g := !g + n;
    if !g >= t.window / 2 then send_credit_only t lc ~dst:src
  end

and send_credit_only t lc ~dst =
  match Hashtbl.find_opt lc.flows dst with
  | Some f when f.count > 0 ->
    (* A pending batch is the cheapest vehicle: the grant rides its
       combined header, costing zero extra messages. *)
    flush_batch t f ~reason:"credit"
  | _ ->
    let credit = take_grant t ~dst ~lchan:lc.id in
    if credit > 0 then begin
      Stats.Counter.incr t.credit_msgs;
      let out = Mad.begin_packing t.hw_chan ~dst in
      Mad.pack out
        (encode_header ~lchan:lc.id ~len:0 ~combined:true ~credit ~count:0 ());
      Simnet.Node.charge t.mio_node Calib.madio_combined_ns;
      Mad.end_packing out
    end

let deliver t ~src ~lchan payload =
  match Hashtbl.find_opt t.lchannels lchan with
  | None ->
    Log.warn (fun m ->
        m "%s: message for closed logical channel %d dropped"
          (Simnet.Node.name t.mio_node) lchan)
  | Some lc ->
    Stats.Counter.incr t.received;
    if Trace.on () then
      Trace.instant t.mio_node
        (Padico_obs.Event.Madio_recv
           { lchannel = lchan; bytes = Bytebuf.length payload });
    (match lc.recv with
     | Some f ->
       (* Arbitrated delivery: through the NetAccess dispatcher. In the
          default (automatic) grant mode the credit returns once the
          dispatcher has drained the message — so a backed-up dispatcher
          withholds credit and stalls the sender. Manual-grant channels
          (vl_madio) return credit themselves as the application reads. *)
       Na_core.post t.core Na_core.Madio_work (fun () ->
           f ~src payload;
           if not lc.manual_grant then
             add_grant t lc ~src (Bytebuf.length payload))
     | None -> Queue.push (src, payload) lc.pending_rx)

let handle_incoming t inc =
  let src = Mad.incoming_src inc in
  (* Only separate-header mode announces payloads: skip the lookup when
     none is pending. *)
  match
    if Hashtbl.length t.pending_header = 0 then None
    else Hashtbl.find_opt t.pending_header src
  with
  | Some lchan ->
    (* Separate-header mode: this whole message is the announced payload. *)
    Hashtbl.remove t.pending_header src;
    let payload = Mad.unpack inc (Mad.remaining inc) in
    Simnet.Node.cpu_async t.mio_node Calib.madio_separate_ns (fun () ->
        deliver t ~src ~lchan payload)
  | None ->
    let h = Mad.unpack inc ~mode:Mad.Receive_express header_len in
    if Bytebuf.get_u16 h 0 <> magic then
      Log.err (fun m -> m "MadIO: bad header magic, message dropped")
    else begin
      let lchan = Bytebuf.get_u16 h 2 in
      let len = Bytebuf.get_u32 h 4 in
      let combined = Bytebuf.get_u8 h 8 = 1 in
      credit_arrived t ~src ~lchan (Bytebuf.get_u32 h 9);
      if combined then begin
        if len = 0 then
          (* Credit-only message: the header already did its job. *)
          ()
        else begin
          let count = Bytebuf.get_u8 h 13 in
          let payload = Mad.unpack inc len in
          if count <= 1 then
            Simnet.Node.cpu_async t.mio_node Calib.madio_combined_ns (fun () ->
                deliver t ~src ~lchan payload)
          else
            (* Aggregated batch: walk the [u16 sublen | bytes] records,
               delivering zero-copy sub-slices of the one reassembled
               payload, in their queueing order. *)
            Simnet.Node.cpu_async t.mio_node
              (Calib.madio_combined_ns + (count * Calib.madio_agg_permsg_ns))
              (fun () ->
                 let pos = ref 0 in
                 let ok = ref true in
                 for _ = 1 to count do
                   if !ok then
                     if !pos + 2 > len then ok := false
                     else begin
                       let sl = Bytebuf.get_u16 payload !pos in
                       if !pos + 2 + sl > len then ok := false
                       else begin
                         deliver t ~src ~lchan
                           (Bytebuf.sub payload (!pos + 2) sl);
                         pos := !pos + 2 + sl
                       end
                     end
                 done;
                 if not !ok then
                   Log.err (fun m ->
                       m "MadIO: malformed aggregated batch from %d dropped"
                         src))
        end
      end
      else
        (* Header-only message: remember which channel the next message
           from this source belongs to. *)
        Hashtbl.replace t.pending_header src lchan
    end

(* The buffer pool is process-global; register its reuse gauges once. *)
let pool_metrics_registered = ref false

let init m =
  let key = (Simnet.Node.uid (Mad.node m), Simnet.Segment.uid (Mad.segment m)) in
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt instances key with
      | Some t -> t
      | None ->
        let hw_chan = Mad.open_channel m ~id:0 in
        let scope = Metrics.Node (Simnet.Node.name (Mad.node m)) in
        let t =
          { mio_mad = m; mio_node = Mad.node m; core = Na_core.get (Mad.node m);
            hw_chan; lchannels = Hashtbl.create 16;
            pending_header = Hashtbl.create 4; combining = true;
            window = 0; credits = Hashtbl.create 8; grants = Hashtbl.create 8;
            credit_waiters = Hashtbl.create 8;
            sent = Metrics.fresh_counter scope "madio.sent";
            received = Metrics.fresh_counter scope "madio.received";
            credit_msgs = Metrics.fresh_counter scope "madio.credit_msgs";
            credit_stalls = Metrics.fresh_counter scope "madio.credit_stalls";
            batched = Metrics.fresh_counter scope "madio.agg_messages";
            batches = Metrics.fresh_counter scope "madio.agg_batches";
            pkts_saved = Metrics.fresh_counter scope "madio.agg_packets_saved" }
        in
        if not !pool_metrics_registered then begin
          pool_metrics_registered := true;
          Metrics.gauge Metrics.Global "bytebuf.pool_hits" (fun () ->
              float_of_int (Bytebuf.Pool.pool_hits ()));
          Metrics.gauge Metrics.Global "bytebuf.pool_misses" (fun () ->
              float_of_int (Bytebuf.Pool.pool_misses ()))
        end;
        Mad.set_recv hw_chan (fun inc -> handle_incoming t inc);
        Hashtbl.replace instances key t;
        t)

let open_lchannel t ~id =
  if id < 0 || id > 0xffff then invalid_arg "Madio.open_lchannel: bad id";
  if Hashtbl.mem t.lchannels id then
    invalid_arg
      (Printf.sprintf "Madio.open_lchannel: channel %d already open" id);
  let lc =
    { owner = t; id; flows = Hashtbl.create 4; recv = None; open_ = true;
      manual_grant = false; pending_rx = Queue.create () }
  in
  Hashtbl.replace t.lchannels id lc;
  lc

let close_lchannel lc =
  if lc.open_ then begin
    let t = lc.owner in
    (* Closing must not strand coalesced messages. *)
    Hashtbl.iter (fun _ f -> flush_batch t f ~reason:"close") lc.flows;
    lc.open_ <- false;
    Hashtbl.remove t.lchannels lc.id
  end

let lchannel_id lc = lc.id

let lchannels_open t = Hashtbl.length t.lchannels

let set_recv lc f =
  lc.recv <- Some f;
  let t = lc.owner in
  while not (Queue.is_empty lc.pending_rx) do
    let src, payload = Queue.pop lc.pending_rx in
    Na_core.post t.core Na_core.Madio_work (fun () ->
        f ~src payload;
        if not lc.manual_grant then add_grant t lc ~src (Bytebuf.length payload))
  done

let sendv lc ~dst iov =
  if not lc.open_ then invalid_arg "Madio.sendv: logical channel closed";
  let t = lc.owner in
  let len = List.fold_left (fun acc b -> acc + Bytebuf.length b) 0 iov in
  Stats.Counter.incr t.sent;
  if Trace.on () then
    Trace.instant t.mio_node
      (Padico_obs.Event.Header
         { lchannel = lc.id; bytes = len; combined = t.combining });
  (* Consume sender credit. Enforcement is soft — sendv itself never
     blocks or fails (control traffic must always get through) — so the
     balance can dip negative; polite bulk senders consult [send_space]
     first and wait on [on_credit]. Batched messages consume credit at
     queueing time: the wire packet may be deferred, the window debt is
     not. *)
  if enabled t then begin
    let c = credit_cell t ~dst ~lchan:lc.id in
    if !c < len then begin
      Stats.Counter.incr t.credit_stalls;
      flow_event t "credit.stall" ~lchan:lc.id (len - !c)
    end;
    c := !c - len
  end;
  try
    if t.combining then begin
      let f = flow lc ~dst in
      if f.in_flight > 0 && len > 0 && len < Calib.madio_agg_threshold_bytes
      then
        (* The flow is busy: coalesce behind its in-flight packet. *)
        queue t f iov len
      else begin
        (* A message that does not coalesce sends the flow's batch first,
           so coalescing never reorders a logical channel. Header
           combining: the multiplexing header rides in the first packet
           of the payload message (one Madeleine message, one DMA post). *)
        flush_batch t f ~reason:"large";
        emit_combined t f ~len ~credit:(take_grant t ~dst ~lchan:lc.id) iov
      end
    end
    else begin
      (* Ablation: header as its own message — a full extra message
         through the whole driver stack. *)
      let credit = take_grant t ~dst ~lchan:lc.id in
      let hdr = Mad.begin_packing t.hw_chan ~dst in
      Mad.pack hdr
        (encode_header ~lchan:lc.id ~len ~combined:false ~credit ~count:0
           ());
      Mad.end_packing hdr;
      let out = Mad.begin_packing t.hw_chan ~dst in
      List.iter (Mad.pack out) iov;
      Simnet.Node.charge t.mio_node Calib.madio_separate_ns;
      Mad.end_packing out
    end
  with Mad.Link_down _ ->
    (* Same fail-fast drop as [flush_batch]: the message vanishes with
       the carrier and the link watcher tears down the users above.
       Without this the exception escapes a scheduler callback and
       aborts the whole run instead of failing one flow. *)
    ()

let send lc ~dst buf = sendv lc ~dst [ buf ]

(* -- credit API --------------------------------------------------------- *)

let set_credit_window t n =
  if n < 0 then invalid_arg "Madio.set_credit_window: negative window";
  t.window <- n;
  Hashtbl.reset t.credits;
  Hashtbl.reset t.grants;
  if n > 0 then begin
    let scope = Metrics.Node (Simnet.Node.name t.mio_node) in
    Metrics.gauge scope "madio.credit_window" (fun () ->
        float_of_int t.window);
    Metrics.gauge scope "madio.send_space_min" (fun () ->
        Hashtbl.fold (fun _ c acc -> Float.min acc (float_of_int !c))
          t.credits (float_of_int t.window))
  end

let credit_window t = t.window

let send_space lc ~dst =
  let t = lc.owner in
  if not (enabled t) then max_int
  else max 0 !(credit_cell t ~dst ~lchan:lc.id)

let on_credit lc ~dst ?(min_space = 1) f =
  if min_space < 1 then invalid_arg "Madio.on_credit: min_space must be >= 1";
  let t = lc.owner in
  if (not (enabled t)) || send_space lc ~dst >= min_space then f ()
  else begin
    let q =
      match Hashtbl.find_opt t.credit_waiters (dst, lc.id) with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace t.credit_waiters (dst, lc.id) q;
        q
    in
    Queue.push (min_space, f) q
  end

let set_manual_grant lc v = lc.manual_grant <- v

let grant lc ~src n =
  if n < 0 then invalid_arg "Madio.grant: negative grant";
  add_grant lc.owner lc ~src n

let credit_stalls t = Stats.Counter.value t.credit_stalls

let credit_messages t = Stats.Counter.value t.credit_msgs

let set_header_combining t v =
  (* Pending batches assume the combined wire format: push them out under
     the format they were queued for before switching. *)
  if not v then
    Hashtbl.iter
      (fun _ lc ->
         Hashtbl.iter
           (fun _ f -> flush_batch t f ~reason:"combining")
           lc.flows)
      t.lchannels;
  t.combining <- v

let header_combining t = t.combining

let messages_sent t = Stats.Counter.value t.sent

let messages_received t = Stats.Counter.value t.received

(* -- coalescing counters ------------------------------------------------ *)

let messages_batched t = Stats.Counter.value t.batched

let batches_sent t = Stats.Counter.value t.batches

let packets_saved t = Stats.Counter.value t.pkts_saved

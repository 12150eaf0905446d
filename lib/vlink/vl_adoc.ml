module Bytebuf = Engine.Bytebuf
module Adoc = Methods.Adoc
module Trace = Padico_obs.Trace

let driver_name = "adoc"

let trace_adapter node dir bytes =
  if Trace.on () then
    Trace.instant node
      (Padico_obs.Event.Adapter { adapter = driver_name; dir; bytes })

let trace_flow node action bytes =
  if Trace.on () then
    Trace.instant node
      (Padico_obs.Event.Flow { action; place = driver_name; bytes })

type st = {
  inner : Vl.t;
  codec : Adoc.t;
  decoder : Adoc.Decoder.d;
  rx : Streamq.t;
  node : Simnet.Node.t;
  mutable outer : Vl.t option;
  mutable closed : bool;
  mutable rx_paused : bool;
  mutable inner_eof : bool;  (* inner stream fully drained to Eof *)
  mutable inflight : int;  (* decompress cpu charges not yet landed *)
  mutable wr_inflight : int;  (* coded frames posted, not yet accepted *)
  mutable max_space : int;  (* largest inner write space seen: its buffer *)
}

let charge st per_byte n k =
  Simnet.Node.cpu_async st.node
    (int_of_float (per_byte *. float_of_int n))
    k

(* End of stream is only surfaced once every coded byte has been
   decompressed and queued: the inner Eof (or Peer_closed event) races
   with frames still in the decode/charge pipeline, and forwarding it
   eagerly would discard data the peer sent before closing. *)
let maybe_eof st =
  if st.inner_eof && st.inflight = 0 then
    match st.outer with
    | Some vl -> Vl.notify vl Vl.Peer_closed
    | None -> ()

(* Closing must not guillotine coded frames already accepted by [o_write]
   but still queued in the inner driver — the peer would see silent
   truncation. The inner close waits for the last frame. *)
let flush_close st =
  if st.closed && st.wr_inflight = 0 && not (Vl.is_closed st.inner) then
    Vl.close st.inner

(* Keep one inner read posted while the rx queue is under its high
   watermark; decode into the rx queue. Above the watermark the loop
   parks ([rx_paused]) and the unread bytes back up in the inner driver —
   backpressure propagates down instead of hiding here. *)
let rec read_loop st =
  if (not st.closed) && not st.inner_eof then begin
    if Streamq.above_high st.rx then begin
      st.rx_paused <- true;
      trace_flow st.node "pause" (Streamq.length st.rx)
    end
    else begin
      let buf = Bytebuf.create 65_536 in
      let req = Vl.post_read st.inner buf in
      Vl.set_handler req (function
        | Vl.Done n ->
          let chunks = Adoc.Decoder.feed st.decoder (Bytebuf.sub buf 0 n) in
          let decompressed =
            List.fold_left (fun acc c -> acc + Bytebuf.length c) 0 chunks
          in
          trace_adapter st.node Padico_obs.Event.Unwrap decompressed;
          (* Decompression CPU, then deliver. *)
          st.inflight <- st.inflight + 1;
          charge st Calib.decompress_per_byte_ns decompressed (fun () ->
              st.inflight <- st.inflight - 1;
              List.iter (Streamq.push st.rx) chunks;
              (match st.outer with
               | Some vl when not (Streamq.is_empty st.rx) ->
                 Vl.notify vl Vl.Readable
               | _ -> ());
              read_loop st;
              maybe_eof st)
        | Vl.Again -> read_loop st
        | Vl.Eof ->
          st.inner_eof <- true;
          maybe_eof st
        | Vl.Error e ->
          (match st.outer with
           | Some vl -> Vl.notify vl (Vl.Failed e)
           | None -> ()))
    end
  end

(* Bytes the next frames may occupy in the inner driver. Below half its
   buffer, and without room for a full chunk, the answer is 0: cutting
   frames to whatever space one acknowledgement freed would lock the
   stream into segments of that size (the silly-window syndrome), so the
   writer waits for more space instead. *)
let frame_room st =
  let space = Stdlib.max 0 (Vl.write_space st.inner) in
  if space > st.max_space then st.max_space <- space;
  if
    space * 2 >= st.max_space
    || space >= Adoc.chunk_size st.codec + Adoc.frame_header_len
  then space
  else 0

let resume_reads st =
  if st.rx_paused && Streamq.below_low st.rx then begin
    st.rx_paused <- false;
    trace_flow st.node "resume" (Streamq.length st.rx);
    read_loop st
  end

let ops st =
  { Vl.o_write =
      (fun buf ->
         if st.closed then 0
         else begin
           let total = Bytebuf.length buf in
           (* Accept only what the inner driver has room for (worst case:
              an uncompressible chunk costs its length plus the frame
              header) so backpressure is forwarded instead of absorbed in
              an unbounded inner write queue. *)
           let budget = ref (frame_room st) in
           let pos = ref 0 in
           let continue = ref true in
           while !continue && !pos < total do
             let n =
               min
                 (min (Adoc.chunk_size st.codec) (total - !pos))
                 (!budget - Adoc.frame_header_len)
             in
             if n <= 0 then continue := false
             else begin
               let chunk = Bytebuf.sub buf !pos n in
               let frame, decision = Adoc.encode st.codec chunk in
               (* Compression CPU precedes the wire. *)
               (match decision with
                | Adoc.Compress ->
                  charge st Calib.compress_per_byte_ns n (fun () -> ())
                | Adoc.Pass -> ());
               st.wr_inflight <- st.wr_inflight + 1;
               let req = Vl.post_write st.inner frame in
               Vl.set_handler req (fun _ ->
                   st.wr_inflight <- st.wr_inflight - 1;
                   flush_close st);
               budget := !budget - Bytebuf.length frame;
               pos := !pos + n
             end
           done;
           if !pos > 0 then trace_adapter st.node Padico_obs.Event.Wrap !pos;
           !pos
         end);
    o_read =
      (fun ~max ->
         let r = Streamq.pop st.rx ~max in
         resume_reads st;
         r);
    o_readable = (fun () -> Streamq.length st.rx);
    o_write_space =
      (fun () ->
         if st.closed then 0
         else Stdlib.max 0 (frame_room st - Adoc.frame_header_len));
    o_close =
      (fun () ->
         st.closed <- true;
         flush_close st);
    o_driver = driver_name }

let wrap ?chunk ?(rx_high = 262_144) ?rx_low ~link_bandwidth_bps inner =
  let rx_low = match rx_low with Some l -> l | None -> rx_high / 4 in
  let st =
    { inner; codec = Adoc.create ?chunk ~link_bandwidth_bps ();
      decoder = Adoc.Decoder.create ();
      rx = Streamq.create ~high:rx_high ~low:rx_low ();
      node = Vl.node inner; outer = None; closed = false; rx_paused = false;
      inner_eof = false; inflight = 0; wr_inflight = 0; max_space = 0 }
  in
  let connected_now = Vl.is_connected inner in
  let vl =
    if connected_now then Vl.create_connected (Vl.node inner) (ops st)
    else Vl.create (Vl.node inner)
  in
  st.outer <- Some vl;
  (* One forwarding handler for both connect paths: backpressure release
     (inner Writable), peer death and failures all propagate up instead of
     being swallowed while the read loop is parked. *)
  Vl.on_event inner (function
    | Vl.Connected ->
      if not connected_now then Vl.attach_ops vl (ops st);
      read_loop st
    | Vl.Writable -> Vl.notify vl Vl.Writable
    | Vl.Peer_closed ->
      (* FIN may precede coded bytes still buffered in the inner driver:
         keep the read loop draining; {!maybe_eof} forwards end-of-stream
         once the decode pipeline runs dry. *)
      ()
    | Vl.Failed e -> Vl.notify vl (Vl.Failed e)
    | Vl.Readable -> ());
  if connected_now then read_loop st;
  vl

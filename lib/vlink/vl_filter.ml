module Bytebuf = Engine.Bytebuf
module Trace = Padico_obs.Trace

type codec = {
  name : string;
  overhead : int;
  encode : Bytebuf.t -> Bytebuf.t * float;
  decode : Bytebuf.t -> (Bytebuf.t * float, string) result;
}

let adoc ~link_bandwidth_bps =
  let module Adoc = Methods.Adoc in
  let t = Adoc.create ~link_bandwidth_bps in
  let cost per_byte = function Adoc.Compress -> per_byte | Adoc.Pass -> 0.0 in
  { name = "adoc"; overhead = Adoc.overhead;
    encode =
      (fun chunk ->
         let body, d = Adoc.encode t chunk in
         (body, cost Calib.compress_per_byte_ns d));
    decode =
      (fun body ->
         Result.map
           (fun (chunk, d) -> (chunk, cost Calib.decompress_per_byte_ns d))
           (Adoc.decode body)) }

let cipher ~key =
  let module Crypto = Methods.Crypto in
  let per_byte = Calib.cipher_per_byte_ns in
  { name = "crypto"; overhead = Crypto.overhead;
    encode = (fun chunk -> (Crypto.encrypt key chunk, per_byte));
    decode =
      (fun body -> Result.map (fun c -> (c, per_byte)) (Crypto.decrypt key body))
  }

(* ---------- framing: [u32 len | body] ---------- *)

let chunk = 16_384

let header = 4

let frame_overhead codec = header + codec.overhead

let frame codec c =
  let body, per_byte = codec.encode c in
  let len = Bytebuf.length body in
  let f = Bytebuf.create (header + len) in
  Bytebuf.set_u32 f 0 len;
  Bytebuf.blit ~src:body ~src_off:0 ~dst:f ~dst_off:header ~len;
  (f, per_byte)

type framer = {
  fcodec : codec;
  pending : Streamq.t;
  mutable want : int;  (* body length of the frame in progress; -1: header *)
}

let framer fcodec = { fcodec; pending = Streamq.create (); want = -1 }

let pending f = Streamq.length f.pending

let feed f slice =
  Streamq.push f.pending slice;
  let rec go acc ns =
    if f.want < 0 then
      if Streamq.length f.pending < header then Ok (List.rev acc, ns)
      else begin
        let len = Bytebuf.get_u32 (Streamq.pop_exact f.pending header) 0 in
        (* No writer frames more than one chunk: a longer body is
           corruption, refused before it is buffered. *)
        if len > chunk + f.fcodec.overhead then
          Error (Printf.sprintf "%s: corrupt frame length %d" f.fcodec.name len)
        else begin
          f.want <- len;
          go acc ns
        end
      end
    else if Streamq.length f.pending < f.want then Ok (List.rev acc, ns)
    else begin
      let body = Streamq.pop_exact f.pending f.want in
      f.want <- -1;
      match f.fcodec.decode body with
      | Ok (c, per_byte) ->
        go (c :: acc) (ns +. (per_byte *. float_of_int (Bytebuf.length c)))
      | Error e -> Error e
    end
  in
  Result.map (fun (chunks, ns) -> (chunks, int_of_float ns)) (go [] 0.0)

(* ---------- the filter descriptor ---------- *)

type st = {
  codec : codec;
  inner : Vl.t;
  framer : framer;
  rx : Streamq.t;
  node : Simnet.Node.t;
  mutable outer : Vl.t option;
  mutable closed : bool;
  mutable rx_paused : bool;
  mutable inner_eof : bool;  (* inner stream fully drained to Eof *)
  mutable inflight : int;  (* decode cpu charges not yet landed *)
  mutable wr_inflight : int;  (* frames posted, not yet accepted *)
  mutable max_space : int;  (* largest inner write space seen: its buffer *)
}

let trace_adapter st dir bytes =
  if Trace.on () then
    Trace.instant st.node
      (Padico_obs.Event.Adapter { adapter = st.codec.name; dir; bytes })

let trace_flow st action bytes =
  if Trace.on () then
    Trace.instant st.node
      (Padico_obs.Event.Flow { action; place = st.codec.name; bytes })

let notify_outer st ev =
  match st.outer with Some vl -> Vl.notify vl ev | None -> ()

(* End of stream is only surfaced once every frame has been decoded and
   queued: the inner Eof (or Peer_closed event) races with frames still in
   the decode/charge pipeline, and forwarding it eagerly would discard data
   the peer sent before closing. *)
let maybe_eof st =
  if st.inner_eof && st.inflight = 0 then notify_outer st Vl.Peer_closed

(* Closing must not guillotine frames already accepted by [o_write] but
   still queued in the inner driver — the peer would see silent
   truncation. The inner close waits for the last frame. *)
let flush_close st =
  if st.closed && st.wr_inflight = 0 && not (Vl.is_closed st.inner) then
    Vl.close st.inner

(* A corrupt stream cannot be resynchronised: stop reading, drop the inner
   link once its accepted frames are out, and fail the descriptor. *)
let fail st e =
  st.closed <- true;
  flush_close st;
  notify_outer st (Vl.Failed e)

(* Keep one inner read posted while the rx queue is under its high
   watermark; decode into the rx queue. Above the watermark the loop
   parks ([rx_paused]) and the unread bytes back up in the inner driver —
   backpressure propagates down instead of hiding here. *)
let rec read_loop st =
  if (not st.closed) && not st.inner_eof then begin
    if Streamq.above_high st.rx then begin
      st.rx_paused <- true;
      trace_flow st "pause" (Streamq.length st.rx)
    end
    else begin
      let buf = Bytebuf.create 65_536 in
      let req = Vl.post_read st.inner buf in
      Vl.set_handler req (function
        | Vl.Done n -> (
          match feed st.framer (Bytebuf.sub buf 0 n) with
          | Error e -> fail st e
          | Ok (chunks, ns) ->
            let bytes =
              List.fold_left (fun a c -> a + Bytebuf.length c) 0 chunks
            in
            if bytes > 0 then trace_adapter st Padico_obs.Event.Unwrap bytes;
            (* Decode CPU, then deliver. *)
            st.inflight <- st.inflight + 1;
            Simnet.Node.cpu_async st.node ns (fun () ->
                st.inflight <- st.inflight - 1;
                List.iter (Streamq.push st.rx) chunks;
                if not (Streamq.is_empty st.rx) then
                  notify_outer st Vl.Readable;
                read_loop st;
                maybe_eof st))
        | Vl.Again -> read_loop st
        | Vl.Eof ->
          st.inner_eof <- true;
          maybe_eof st
        | Vl.Error e -> fail st e)
    end
  end

let resume_reads st =
  if st.rx_paused && Streamq.below_low st.rx then begin
    st.rx_paused <- false;
    trace_flow st "resume" (Streamq.length st.rx);
    read_loop st
  end

(* Bytes the next frames may occupy in the inner driver. Below half its
   buffer, and without room for a full chunk, the answer is 0: cutting
   frames to whatever space one acknowledgement freed would lock the
   stream into segments of that size (the silly-window syndrome), so the
   writer waits for more space instead. *)
let frame_room st =
  let space = Stdlib.max 0 (Vl.write_space st.inner) in
  if space > st.max_space then st.max_space <- space;
  if space * 2 >= st.max_space || space >= chunk + frame_overhead st.codec
  then space
  else 0

(* Accept only what the inner driver has room for (worst case: a chunk
   costs its length plus the frame overhead), so backpressure is forwarded
   instead of absorbed in an unbounded inner write queue. Each chunk's
   encode CPU is charged before its frame is posted. *)
let write st buf =
  let total = Bytebuf.length buf in
  let budget = ref (frame_room st) in
  let pos = ref 0 in
  while !pos < total && !budget > frame_overhead st.codec do
    let n =
      min (min chunk (total - !pos)) (!budget - frame_overhead st.codec)
    in
    let f, per_byte = frame st.codec (Bytebuf.sub buf !pos n) in
    Simnet.Node.charge st.node (int_of_float (per_byte *. float_of_int n));
    st.wr_inflight <- st.wr_inflight + 1;
    Vl.set_handler (Vl.post_write st.inner f) (fun _ ->
        st.wr_inflight <- st.wr_inflight - 1;
        flush_close st);
    budget := !budget - Bytebuf.length f;
    pos := !pos + n
  done;
  if !pos > 0 then trace_adapter st Padico_obs.Event.Wrap !pos;
  !pos

let ops st =
  { Vl.o_write = (fun buf -> if st.closed then 0 else write st buf);
    o_read =
      (fun ~max ->
         let r = Streamq.pop st.rx ~max in
         resume_reads st;
         r);
    o_readable = (fun () -> Streamq.length st.rx);
    o_write_space =
      (fun () ->
         if st.closed then 0
         else Stdlib.max 0 (frame_room st - frame_overhead st.codec));
    o_close =
      (fun () ->
         st.closed <- true;
         flush_close st);
    o_driver = st.codec.name }

let wrap ?(rx_high = 262_144) codec inner =
  let st =
    { codec; inner; framer = framer codec;
      rx = Streamq.create ~high:rx_high ~low:(rx_high / 4) ();
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
      (* FIN may precede frames still buffered in the inner driver: keep
         the read loop draining; {!maybe_eof} forwards end-of-stream once
         the decode pipeline runs dry. *)
      ()
    | Vl.Failed e -> Vl.notify vl (Vl.Failed e)
    | Vl.Readable -> ());
  if connected_now then read_loop st;
  vl

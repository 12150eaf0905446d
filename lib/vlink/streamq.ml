module Bytebuf = Engine.Bytebuf

type t = {
  chunks : Bytebuf.t Queue.t;
  (* Remainder of a split head chunk. Keeping it in a dedicated slot makes
     [pop] O(1): reinserting it at the front of the queue would cost a
     full-queue transfer per bounded read. *)
  mutable front : Bytebuf.t option;
  mutable len : int;
  mutable peak : int;
  high : int;
  low : int;
}

let create ?(high = max_int) ?low () =
  let low = match low with Some l -> l | None -> if high = max_int then max_int else high / 2 in
  if high < 0 || low < 0 || low > high then
    invalid_arg "Streamq.create: need 0 <= low <= high";
  { chunks = Queue.create (); front = None; len = 0; peak = 0; high; low }

let push t b =
  if Bytebuf.length b > 0 then begin
    Queue.push b t.chunks;
    t.len <- t.len + Bytebuf.length b;
    if t.len > t.peak then t.peak <- t.len
  end

let pop t ~max =
  if t.len = 0 || max <= 0 then None
  else begin
    let head =
      match t.front with
      | Some b ->
        t.front <- None;
        b
      | None -> Queue.pop t.chunks
    in
    let hlen = Bytebuf.length head in
    let out =
      if hlen <= max then head
      else begin
        let a, b = Bytebuf.split head max in
        t.front <- Some b;
        a
      end
    in
    t.len <- t.len - Bytebuf.length out;
    Some out
  end

let pop_exact t n =
  if n < 0 then invalid_arg "Streamq.pop_exact: negative length";
  if n > t.len then invalid_arg "Streamq.pop_exact: not enough bytes";
  if n = 0 then Bytebuf.create 0
  else
    match pop t ~max:n with
    | Some first when Bytebuf.length first = n -> first
    | Some first ->
      let out = Bytebuf.create_uninit n in
      Bytebuf.blit_dma ~src:first ~src_off:0 ~dst:out ~dst_off:0
        ~len:(Bytebuf.length first);
      let filled = ref (Bytebuf.length first) in
      while !filled < n do
        match pop t ~max:(n - !filled) with
        | Some part ->
          Bytebuf.blit_dma ~src:part ~src_off:0 ~dst:out ~dst_off:!filled
            ~len:(Bytebuf.length part);
          filled := !filled + Bytebuf.length part
        | None -> invalid_arg "Streamq.pop_exact: queue underflow"
      done;
      out
    | None -> invalid_arg "Streamq.pop_exact: queue underflow"

let length t = t.len

let is_empty t = t.len = 0

let peak t = t.peak

let high_watermark t = t.high

let low_watermark t = t.low

let above_high t = t.len >= t.high

let below_low t = t.len <= t.low

let writable t = t.len < t.high

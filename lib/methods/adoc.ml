module Bytebuf = Engine.Bytebuf

type t = {
  link_bandwidth_bps : float;
  mutable ratio : float; (* moving average of compressed/original *)
}

type decision = Compress | Pass

(* Optimistic prior: assume data halves until observations say otherwise,
   so slow links start compressing and adapt away if the data proves
   incompressible. *)
let create ~link_bandwidth_bps = { link_bandwidth_bps; ratio = 0.5 }

let recent_ratio t = t.ratio

(* Compressing pays off when the bytes saved per second of CPU exceed what
   the link can drain: effective send rate with compression is
   min(compressor rate, link rate / ratio); without it, the link rate. *)
let decide t =
  let compressor_bps = 1e9 /. Calib.compress_per_byte_ns in
  let with_compression =
    Float.min compressor_bps (t.link_bandwidth_bps /. Float.max 0.01 t.ratio)
  in
  if with_compression > t.link_bandwidth_bps *. 1.05 then Compress else Pass

let observe t ~original ~compressed =
  if original > 0 then begin
    let r = float_of_int compressed /. float_of_int original in
    t.ratio <- (0.75 *. t.ratio) +. (0.25 *. r)
  end

let overhead = 1

let body flag payload =
  let len = Bytebuf.length payload in
  let out = Bytebuf.create (overhead + len) in
  Bytebuf.set_u8 out 0 flag;
  Bytebuf.blit ~src:payload ~src_off:0 ~dst:out ~dst_off:overhead ~len;
  out

let encode t chunk =
  match decide t with
  | Pass -> (body 0 chunk, Pass)
  | Compress ->
    let packed = Lz.compress chunk in
    observe t ~original:(Bytebuf.length chunk)
      ~compressed:(Bytebuf.length packed);
    if Bytebuf.length packed >= Bytebuf.length chunk then
      (body 0 chunk, Compress)
    else (body 1 packed, Compress)

let decode b =
  let n = Bytebuf.length b in
  if n < overhead then Error "Adoc: empty body"
  else
    let payload = Bytebuf.sub b overhead (n - overhead) in
    match Bytebuf.get_u8 b 0 with
    | 0 -> Ok (payload, Pass)
    | 1 -> (
      match Lz.decompress payload with
      | chunk -> Ok (chunk, Compress)
      | exception Invalid_argument e -> Error e)
    | f -> Error (Printf.sprintf "Adoc: corrupt flag %d" f)

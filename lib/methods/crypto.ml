module Bytebuf = Engine.Bytebuf

type key = int64

let overhead = 4

let key_of_string s =
  let h = ref 0x3bf29ce484222325L in
  String.iter
    (fun c ->
       h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
           0x100000001b3L)
    s;
  !h

let derive k ~salt =
  Int64.mul (Int64.logxor k (Int64.of_int salt)) 0x9E3779B97F4A7C15L

let[@inline] xorshift x =
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  Int64.logxor x (Int64.shift_left x 17)

(* [dst] <- [src] xor the keyed xorshift64 keystream, one state step per
   8 bytes: whole words little-endian, then the tail against the low bytes
   of one more step. The state is a local [int64], kept unboxed. *)
let xor_keystream k (src : Bytebuf.t) (dst : Bytebuf.t) =
  let n = src.len and s = src.data and so = src.off in
  let d = dst.data and doff = dst.off in
  let x = ref (Int64.logor k 1L) in
  let words = n lsr 3 in
  for w = 0 to words - 1 do
    x := xorshift !x;
    let i = 8 * w in
    Bytes.set_int64_le d (doff + i)
      (Int64.logxor (Bytes.get_int64_le s (so + i)) !x)
  done;
  if n land 7 <> 0 then begin
    let ks = Int64.to_int (xorshift !x) in
    for i = 8 * words to n - 1 do
      let b = (ks lsr (8 * (i land 7))) land 0xff in
      Bytes.unsafe_set d (doff + i)
        (Char.unsafe_chr (Char.code (Bytes.get s (so + i)) lxor b))
    done
  end

(* Keyed MAC, modulo 2^32: [acc <- acc * m + lane] over 32-bit
   little-endian lanes (two per 64-bit load), then the tail bytes, from
   the key's low 24 bits. A single changed byte changes its lane by
   [d * 2^(8j)] with [0 < |d| < 256] and [j < 4], which is non-zero
   modulo 2^32; [m] is odd, so every later multiply keeps it non-zero.
   Arithmetic wraps modulo 2^63, which preserves the low 32 bits. *)
let lane_mul = 0x01000193

let mac k (b : Bytebuf.t) =
  let d = b.data and o = b.off in
  let acc = ref (Int64.to_int k land 0xffffff) in
  let words = b.len lsr 3 in
  for w = 0 to words - 1 do
    let x = Bytes.get_int64_le d (o + (8 * w)) in
    let lo = Int64.to_int x land 0xffffffff in
    let hi = Int64.to_int (Int64.shift_right_logical x 32) in
    acc := (((!acc * lane_mul) + lo) * lane_mul) + hi
  done;
  for i = 8 * words to b.len - 1 do
    acc := (!acc * lane_mul) + Char.code (Bytes.get d (o + i))
  done;
  !acc land 0xffffffff

let encrypt k buf =
  let n = Bytebuf.length buf in
  let out = Bytebuf.of_bytes (Bytes.create (n + overhead)) in
  let body = Bytebuf.sub out 0 n in
  xor_keystream k buf body;
  Bytebuf.set_u32 out n (mac k body);
  out

let decrypt k buf =
  let total = Bytebuf.length buf in
  if total < overhead then Result.Error "Crypto: frame too short"
  else begin
    let n = total - overhead in
    let body = Bytebuf.sub buf 0 n in
    if Bytebuf.get_u32 buf n <> mac k body then
      Result.Error "Crypto: authentication failed"
    else begin
      let out = Bytebuf.of_bytes (Bytes.create n) in
      xor_keystream k body out;
      Result.Ok out
    end
  end

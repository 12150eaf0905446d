(* The splitmix64 state lives in an 8-byte buffer rather than a mutable
   [int64] field: reading and writing it with [Bytes.get/set_int64_ne]
   keeps the arithmetic unboxed, so a draw allocates nothing (a mutable
   [int64] field boxes a fresh value on every store). *)
type t = bytes

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed =
  of_state (Int64.mul (Int64.of_int (seed + 1)) 0x2545F4914F6CDD1DL)

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (int64 t)

(* Keyed derivation: the [i]-th child stream of [t]'s current state,
   without advancing [t]. Children of distinct indices are independent
   (each lands on a distinct mixed point of the gamma sequence), and the
   mapping is a pure function of (state, i) — the property the sharded
   engine needs so per-shard / per-port streams do not depend on the
   order in which shards happen to ask for them. *)
let stream t i =
  of_state
    (mix
       (Int64.add (Bytes.get_int64_ne t 0)
          (Int64.mul (Int64.of_int (i + 1)) golden_gamma)))

let int t bound =
  assert (bound > 0);
  (* Keep 62 bits so the conversion to OCaml's 63-bit int stays positive. *)
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  (* [v >= 0]: a power-of-two bound masks to what [mod] gives, sparing
     [Bytebuf.fill_random] a division per byte. *)
  if bound land (bound - 1) = 0 then v land (bound - 1) else v mod bound

let[@inline] float t x =
  let v = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  (* 53 random bits scaled to [0,1). *)
  x *. (v /. 9007199254740992.0)

let bool t p = float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

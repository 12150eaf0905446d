module Bytebuf = Engine.Bytebuf

type t = {
  cap : int;
  mutable ring : Bytebuf.t; (* [no_ring] while nothing is pending *)
  mutable head : int;
  mutable len : int;
}

let min_ring = 4_096
let no_ring = Bytebuf.create 0

let create ~cap =
  if cap < min_ring || cap land (cap - 1) <> 0 then
    invalid_arg "Txring.create: cap must be a power of two >= 4096";
  { cap; ring = no_ring; head = 0; len = 0 }

let length t = t.len
let space t = t.cap - t.len
let held_bytes t = Bytebuf.length t.ring

let clear t =
  if t.ring != no_ring then begin
    Bytebuf.Pool.release_bytes t.ring.Bytebuf.data;
    t.ring <- no_ring;
    t.head <- 0;
    t.len <- 0
  end

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* Room for [n] more pending bytes: a ring too small for them is replaced
   by a larger one holding the pending bytes unwrapped, from offset 0. *)
let reserve t n =
  let need = t.len + n in
  let old = t.ring.Bytebuf.data in
  let cap = Bytes.length old in
  if need > cap then begin
    let ring = Bytebuf.Pool.alloc_bytes (min t.cap (pow2_at_least need min_ring)) in
    let first = min t.len (cap - t.head) in
    Bytes.blit old t.head ring 0 first;
    Bytes.blit old 0 ring first (t.len - first);
    if cap > 0 then Bytebuf.Pool.release_bytes old;
    t.ring <- Bytebuf.of_bytes ring;
    t.head <- 0
  end

(* At most two blits per piece: up to the ring's end, then from 0. *)
let append t b k =
  let cap = Bytebuf.length t.ring in
  let pos = (t.head + t.len) land (cap - 1) in
  let first = min k (cap - pos) in
  Bytebuf.blit ~src:b ~src_off:0 ~dst:t.ring ~dst_off:pos ~len:first;
  Bytebuf.blit ~src:b ~src_off:first ~dst:t.ring ~dst_off:0 ~len:(k - first);
  t.len <- t.len + k

let push t bufs n =
  if n < 0 || n > space t then invalid_arg "Txring.push: no room";
  if n > 0 then begin
    reserve t n;
    let rec copy left = function
      | b :: rest when left > 0 ->
        let k = min left (Bytebuf.length b) in
        append t b k;
        copy (left - k) rest
      | _ -> ()
    in
    copy n bufs
  end

let write_front t write =
  if t.len = 0 then 0
  else begin
    let run = min t.len (Bytebuf.length t.ring - t.head) in
    let n = write t.ring.Bytebuf.data t.head run in
    t.head <- (t.head + n) land (Bytebuf.length t.ring - 1);
    t.len <- t.len - n;
    if t.len = 0 then clear t;
    n
  end

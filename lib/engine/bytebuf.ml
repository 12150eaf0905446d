type t = { data : bytes; off : int; len : int }

(* Atomic: copies happen on every shard of a parallel run and the E8
   ablation wants an exact total. *)
let copied = Atomic.make 0

let copies_performed () = Atomic.get copied

let reset_copy_counter () = Atomic.set copied 0

let create len = { data = Bytes.make len '\000'; off = 0; len }

let create_uninit len = { data = Bytes.create len; off = 0; len }

let of_bytes data = { data; off = 0; len = Bytes.length data }

let of_string s = of_bytes (Bytes.of_string s)

let to_string b = Bytes.sub_string b.data b.off b.len

let length b = b.len

let is_empty b = b.len = 0

let sub b off len =
  if off < 0 || len < 0 || off + len > b.len then
    invalid_arg
      (Printf.sprintf "Bytebuf.sub: off=%d len=%d in buffer of %d" off len
         b.len);
  { data = b.data; off = b.off + off; len }

let split b n = (sub b 0 n, sub b n (b.len - n))

let blit_dma ~src ~src_off ~dst ~dst_off ~len =
  if src_off < 0 || len < 0 || src_off + len > src.len then
    invalid_arg "Bytebuf.blit: source out of bounds";
  if dst_off < 0 || dst_off + len > dst.len then
    invalid_arg "Bytebuf.blit: destination out of bounds";
  Bytes.blit src.data (src.off + src_off) dst.data (dst.off + dst_off) len

let blit ~src ~src_off ~dst ~dst_off ~len =
  blit_dma ~src ~src_off ~dst ~dst_off ~len;
  ignore (Atomic.fetch_and_add copied len)

let concat parts =
  let total = List.fold_left (fun acc p -> acc + p.len) 0 parts in
  let out = create_uninit total in
  let pos = ref 0 in
  List.iter
    (fun p ->
       blit ~src:p ~src_off:0 ~dst:out ~dst_off:!pos ~len:p.len;
       pos := !pos + p.len)
    parts;
  out

let copy b =
  let out = create_uninit b.len in
  blit ~src:b ~src_off:0 ~dst:out ~dst_off:0 ~len:b.len;
  out

(* Byte [i] of the seed-0 pattern is [31 i mod 256], laid out twice so
   that any 256-byte window can be read in one blit. Since 31 * 223 = 1
   (mod 256), the seed-[s] pattern [(s + 31 i) mod 256] is the window
   starting at [223 s mod 256]. *)
let pattern = Bytes.init 512 (fun i -> Char.unsafe_chr ((31 * i) land 0xff))

let fill_pattern b ~seed =
  let first = if b.len < 256 then b.len else 256 in
  Bytes.blit pattern ((seed * 223) land 0xff) b.data b.off first;
  let filled = ref first in
  while !filled < b.len do
    let n = if 2 * !filled <= b.len then !filled else b.len - !filled in
    Bytes.blit b.data b.off b.data (b.off + !filled) n;
    filled := !filled + n
  done

let fill_zero b = Bytes.fill b.data b.off b.len '\000'

let fill_random b rng =
  for i = 0 to b.len - 1 do
    Bytes.unsafe_set b.data (b.off + i) (Char.chr (Rng.int rng 256))
  done

(* Eight bytes per compare, then the tail byte by byte. *)
let equal a b =
  a.len = b.len
  &&
  let words = a.len / 8 in
  let rec tail i =
    i >= a.len
    || (Bytes.get a.data (a.off + i) = Bytes.get b.data (b.off + i)
        && tail (i + 1))
  in
  let rec go w =
    if w >= words then tail (8 * words)
    else
      let i = 8 * w in
      (Bytes.get_int64_ne a.data (a.off + i) : int64)
      = Bytes.get_int64_ne b.data (b.off + i)
      && go (w + 1)
  in
  go 0

(* 64-bit little-endian words, then the tail bytes, through
   [h <- (h xor w) * p]: with [p] odd each step is a bijection of [h] and
   of [w], so changing any one word or byte changes the 64-bit state. The
   murmur3 finaliser then spreads that change over every bit before the
   result is cut to 62 bits, so a change confined to the top bits of the
   state is not masked away. *)
let checksum b =
  let d = b.data and o = b.off in
  let words = b.len lsr 3 in
  let h = ref 0xcbf29ce484222325L in
  for w = 0 to words - 1 do
    h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le d (o + (8 * w))))
        0x100000001b3L
  done;
  for i = 8 * words to b.len - 1 do
    let c = Char.code (Bytes.unsafe_get d (o + i)) in
    h := Int64.mul (Int64.logxor !h (Int64.of_int c)) 0x100000001b3L
  done;
  let z = Int64.logxor !h (Int64.of_int b.len) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xc4ceb9fe1a85ec53L in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 33)) land max_int

module Pool = struct
  let slab = 64

  (* The pool is process-global and reachable from every shard of a
     parallel run (TCP send rings, MadIO aggregation headers), so
     its free lists are mutex-guarded. Uncontended lock cost is noise
     next to the per-connection / per-message work the pool amortises. *)
  let lock = Mutex.create ()

  let free : bytes list ref = ref []
  let hits = ref 0
  let misses = ref 0

  let alloc n =
    if n < 0 then invalid_arg "Bytebuf.Pool.alloc: negative length";
    if n > slab then begin
      Mutex.protect lock (fun () -> incr misses);
      { data = Bytes.create n; off = 0; len = n }
    end
    else
      match
        Mutex.protect lock (fun () ->
            match !free with
            | data :: rest ->
              free := rest;
              incr hits;
              Some data
            | [] ->
              incr misses;
              None)
      with
      | Some data -> { data; off = 0; len = n }
      | None -> { data = Bytes.create slab; off = 0; len = n }

  let release b =
    (* Only slabs we handed out come back: anything resized, sliced or
       foreign is simply dropped for the GC. *)
    if b.off = 0 && Bytes.length b.data = slab then
      Mutex.protect lock (fun () -> free := b.data :: !free)

  let pool_hits () = Mutex.protect lock (fun () -> !hits)
  let pool_misses () = Mutex.protect lock (fun () -> !misses)
  let pooled () = Mutex.protect lock (fun () -> List.length !free)

  (* Size-classed slabs for long-lived per-connection buffers (TCP send
     rings are the motivating user: one ring per connection, released and
     reused across the connect/disconnect churn of an edge gateway). The
     class key is the exact byte length: connection buffers come in a
     handful of configured sizes, so the table stays tiny. *)
  let sized : (int, bytes list) Hashtbl.t = Hashtbl.create 8

  let sized_hits_c = ref 0
  let sized_misses_c = ref 0
  let sized_parked = ref 0 (* bytes sitting in the sized free lists *)

  let alloc_bytes n =
    if n <= 0 then invalid_arg "Bytebuf.Pool.alloc_bytes: non-positive length";
    match
      Mutex.protect lock (fun () ->
          match Hashtbl.find_opt sized n with
          | Some (b :: rest) ->
            Hashtbl.replace sized n rest;
            incr sized_hits_c;
            sized_parked := !sized_parked - n;
            Some b
          | Some [] | None ->
            incr sized_misses_c;
            None)
    with
    | Some b -> b
    | None -> Bytes.create n

  let release_bytes b =
    let n = Bytes.length b in
    if n > 0 then
      Mutex.protect lock (fun () ->
          let cur =
            match Hashtbl.find_opt sized n with Some l -> l | None -> []
          in
          Hashtbl.replace sized n (b :: cur);
          sized_parked := !sized_parked + n)

  let sized_hits () = Mutex.protect lock (fun () -> !sized_hits_c)
  let sized_misses () = Mutex.protect lock (fun () -> !sized_misses_c)
  let sized_parked_bytes () = Mutex.protect lock (fun () -> !sized_parked)

  let reset () =
    Mutex.protect lock (fun () ->
        free := [];
        hits := 0;
        misses := 0;
        Hashtbl.reset sized;
        sized_hits_c := 0;
        sized_misses_c := 0;
        sized_parked := 0)
end

let get b i =
  if i < 0 || i >= b.len then invalid_arg "Bytebuf.get";
  Bytes.get b.data (b.off + i)

let set b i c =
  if i < 0 || i >= b.len then invalid_arg "Bytebuf.set";
  Bytes.set b.data (b.off + i) c

let get_u8 b i = Char.code (get b i)

let set_u8 b i v = set b i (Char.unsafe_chr (v land 0xff))

(* Multi-byte accessors: little-endian, one bounds check over the whole
   field and one load or store. *)
let check name b i width = if i < 0 || i > b.len - width then invalid_arg name

let get_u16 b i =
  check "Bytebuf.get" b i 2;
  Bytes.get_uint16_le b.data (b.off + i)

let set_u16 b i v =
  check "Bytebuf.set" b i 2;
  Bytes.set_uint16_le b.data (b.off + i) v

let get_u32 b i =
  check "Bytebuf.get" b i 4;
  Int32.to_int (Bytes.get_int32_le b.data (b.off + i)) land 0xffffffff

let set_u32 b i v =
  check "Bytebuf.set" b i 4;
  Bytes.set_int32_le b.data (b.off + i) (Int32.of_int v)

let get_i64 b i =
  check "Bytebuf.get" b i 8;
  Bytes.get_int64_le b.data (b.off + i)

let set_i64 b i v =
  check "Bytebuf.set" b i 8;
  Bytes.set_int64_le b.data (b.off + i) v

let get_int b i =
  check "Bytebuf.get" b i 8;
  Int64.to_int (Bytes.get_int64_le b.data (b.off + i))

let set_int b i v =
  check "Bytebuf.set" b i 8;
  Bytes.set_int64_le b.data (b.off + i) (Int64.of_int v)

module Bytebuf = Engine.Bytebuf

(* Format: [u32 original-length] then a token stream. Each group starts with
   a control byte: bit i set means item i is a match, clear means a literal
   run follows. A literal item is [u8 runlen-1][bytes]. A match item is
   [u16 offset][u8 len-3] with len in 3..258. *)

let hash_size = 4096

let max_offset = 8192

let max_match = 258

let min_match = 3

let compress_bound n = n + (n / 128) + 16

let compress (src : Bytebuf.t) =
  let n = Bytebuf.length src in
  let out = Buffer.create (n / 2 + 16) in
  Buffer.add_char out (Char.chr (n land 0xff));
  Buffer.add_char out (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char out (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char out (Char.chr ((n lsr 24) land 0xff));
  if n > 0 then begin
    let table = Array.make hash_size (-1) in
    let hash i =
      let a = Bytebuf.get_u8 src i
      and b = Bytebuf.get_u8 src (i + 1)
      and c = Bytebuf.get_u8 src (i + 2) in
      (a lxor (b lsl 4) lxor (c lsl 8)) * 2654435761 land (hash_size - 1)
    in
    (* Tokens are buffered in groups of 8 under one control byte. *)
    let group = Buffer.create 64 in
    let control = ref 0 in
    let items = ref 0 in
    let flush_group () =
      if !items > 0 then begin
        Buffer.add_char out (Char.chr !control);
        Buffer.add_buffer out group;
        Buffer.clear group;
        control := 0;
        items := 0
      end
    in
    let add_item is_match emit =
      if !items = 8 then flush_group ();
      if is_match then control := !control lor (1 lsl !items);
      emit group;
      incr items
    in
    let lit_start = ref 0 in
    let flush_literals upto =
      let pos = ref !lit_start in
      while !pos < upto do
        let run = min 256 (upto - !pos) in
        let p = !pos in
        add_item false (fun g ->
            Buffer.add_char g (Char.chr (run - 1));
            for j = p to p + run - 1 do
              Buffer.add_char g (Bytebuf.get src j)
            done);
        pos := !pos + run
      done;
      lit_start := upto
    in
    let i = ref 0 in
    while !i < n do
      if !i + min_match <= n then begin
        let h = hash !i in
        let cand = table.(h) in
        table.(h) <- !i;
        if cand >= 0 && !i - cand <= max_offset
           && Bytebuf.get src cand = Bytebuf.get src !i
           && Bytebuf.get src (cand + 1) = Bytebuf.get src (!i + 1)
           && Bytebuf.get src (cand + 2) = Bytebuf.get src (!i + 2)
        then begin
          (* Extend the match. *)
          let len = ref min_match in
          while
            !i + !len < n && !len < max_match
            && Bytebuf.get src (cand + !len) = Bytebuf.get src (!i + !len)
          do
            incr len
          done;
          flush_literals !i;
          let off = !i - cand and mlen = !len in
          add_item true (fun g ->
              Buffer.add_char g (Char.chr (off land 0xff));
              Buffer.add_char g (Char.chr ((off lsr 8) land 0xff));
              Buffer.add_char g (Char.chr (mlen - min_match)));
          i := !i + !len;
          lit_start := !i
        end
        else incr i
      end
      else incr i
    done;
    flush_literals n;
    flush_group ()
  end;
  Bytebuf.of_string (Buffer.contents out)

let decompress (src : Bytebuf.t) =
  if Bytebuf.length src < 4 then invalid_arg "Lz.decompress: truncated input";
  let n =
    Bytebuf.get_u8 src 0
    lor (Bytebuf.get_u8 src 1 lsl 8)
    lor (Bytebuf.get_u8 src 2 lsl 16)
    lor (Bytebuf.get_u8 src 3 lsl 24)
  in
  let len = Bytebuf.length src in
  (* A corrupt header must not size the output: no item yields more than
     [max_match] bytes per input byte. *)
  if n > len * max_match then invalid_arg "Lz.decompress: corrupt length";
  let out = Bytebuf.create n in
  let pos = ref 4 in
  let opos = ref 0 in
  let byte () =
    if !pos >= len then invalid_arg "Lz.decompress: truncated input";
    let b = Bytebuf.get_u8 src !pos in
    incr pos;
    b
  in
  while !opos < n do
    let control = byte () in
    let item = ref 0 in
    while !item < 8 && !opos < n do
      if control land (1 lsl !item) <> 0 then begin
        (* Explicit sequencing: argument evaluation order is unspecified. *)
        let lo = byte () in
        let hi = byte () in
        let off = lo lor (hi lsl 8) in
        let mlen = byte () + min_match in
        if off <= 0 || off > !opos || !opos + mlen > n then
          invalid_arg "Lz.decompress: corrupt match";
        for j = 0 to mlen - 1 do
          Bytebuf.set out (!opos + j) (Bytebuf.get out (!opos - off + j))
        done;
        opos := !opos + mlen
      end
      else begin
        let run = byte () + 1 in
        if !opos + run > n then invalid_arg "Lz.decompress: corrupt literals";
        for j = 0 to run - 1 do
          Bytebuf.set out (!opos + j) (Char.chr (byte ()))
        done;
        opos := !opos + run
      end;
      incr item
    done
  done;
  out

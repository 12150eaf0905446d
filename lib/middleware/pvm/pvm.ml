module Bytebuf = Engine.Bytebuf
module Ct = Circuit.Ct
module Madpers = Personalities.Madpers
module Proc = Engine.Proc

(* PVM-style task ids: a base offset plus the rank, so code cannot confuse
   tids with ranks. *)
let tid_base = 0x40000

(* Typed pack stream: each item is [u8 kind | payload]. Kinds: 1 int,
   2 double, 3 string, 4 bytes. *)
let k_int = 1

let k_double = 2

let k_str = 3

let k_bytes = 4

type message = { m_tid : int; m_tag : int; m_payload : Bytebuf.t }

type pending = {
  p_tid : int;
  p_tag : int;
  mutable p_result : message option;
  mutable p_waiter : (message -> unit) option;
}

type t = {
  mp : Madpers.t;
  unexpected : message Queue.t;
  mutable posted : pending list;
}

type sendbuf = { owner : t; buf : Buffer.t; mutable consumed : bool }

type recvbuf = { src_tid : int; tag : int; data : Bytebuf.t; mutable pos : int }

let rank t = Madpers.rank t.mp

let size t = Madpers.size t.mp

let node t = Ct.node (Madpers.circuit t.mp)

let mytid t = tid_base + rank t

let tid_of_rank t r =
  if r < 0 || r >= size t then invalid_arg "Pvm.tid_of_rank";
  tid_base + r

let tids t = Array.init (size t) (fun r -> tid_base + r)

let rank_of_tid t tid =
  let r = tid - tid_base in
  if r < 0 || r >= size t then invalid_arg "Pvm: bad task id";
  r

let matches ~tid ~tag (m : message) =
  (tid = -1 || tid = m.m_tid) && (tag = -1 || tag = m.m_tag)

let on_message t m =
  let rec find acc = function
    | [] ->
      Queue.push m t.unexpected;
      t.posted <- List.rev acc
    | p :: rest ->
      if p.p_result = None && matches ~tid:p.p_tid ~tag:p.p_tag m then begin
        p.p_result <- Some m;
        t.posted <- List.rev_append acc rest;
        match p.p_waiter with
        | Some k ->
          p.p_waiter <- None;
          k m
        | None -> ()
      end
      else find (p :: acc) rest
  in
  find [] t.posted

let init cts =
  Array.map
    (fun ct ->
       let mp = Madpers.attach ct in
       let t = { mp; unexpected = Queue.create (); posted = [] } in
       Madpers.set_recv mp (fun ~src inc ->
           let tag = Ct.unpack_int inc in
           let payload = Ct.unpack inc (Ct.remaining inc) in
           Simnet.Node.cpu_async (node t) Calib.mpi_ns (fun () ->
               on_message t
                 { m_tid = tid_base + src; m_tag = tag; m_payload = payload }));
       t)
    cts

(* ---------- packing ---------- *)

let initsend t = { owner = t; buf = Buffer.create 256; consumed = false }

let add_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let add_i64 b v =
  add_u32 b (Int64.to_int (Int64.logand v 0xffffffffL));
  add_u32 b (Int64.to_int (Int64.shift_right_logical v 32))

let check_open sb = if sb.consumed then invalid_arg "Pvm: send buffer consumed"

let pkint sb v =
  check_open sb;
  Buffer.add_char sb.buf (Char.chr k_int);
  add_i64 sb.buf (Int64.of_int v)

let pkdouble sb v =
  check_open sb;
  Buffer.add_char sb.buf (Char.chr k_double);
  add_i64 sb.buf (Int64.bits_of_float v)

let pkstr sb s =
  check_open sb;
  Buffer.add_char sb.buf (Char.chr k_str);
  add_u32 sb.buf (String.length s);
  Buffer.add_string sb.buf s

let pkbytes sb b =
  check_open sb;
  Buffer.add_char sb.buf (Char.chr k_bytes);
  add_u32 sb.buf (Bytebuf.length b);
  Buffer.add_string sb.buf (Bytebuf.to_string b)

let emit sb ~dst_rank ~tag =
  let t = sb.owner in
  Simnet.Node.cpu (node t) Calib.mpi_ns;
  let out = Madpers.begin_packing t.mp ~dst:dst_rank in
  let tagbuf = Bytebuf.create 8 in
  Bytebuf.set_int tagbuf 0 tag;
  Madpers.pack out tagbuf;
  Madpers.pack out (Bytebuf.of_string (Buffer.contents sb.buf));
  Madpers.end_packing out

let send sb ~tid ~tag =
  check_open sb;
  sb.consumed <- true;
  emit sb ~dst_rank:(rank_of_tid sb.owner tid) ~tag

let mcast sb ~tids ~tag =
  check_open sb;
  sb.consumed <- true;
  List.iter (fun tid -> emit sb ~dst_rank:(rank_of_tid sb.owner tid) ~tag) tids

(* ---------- receiving ---------- *)

let take_unexpected t ~tid ~tag =
  let n = Queue.length t.unexpected in
  let result = ref None in
  for _ = 1 to n do
    let m = Queue.pop t.unexpected in
    if !result = None && matches ~tid ~tag m then result := Some m
    else Queue.push m t.unexpected
  done;
  !result

let to_recvbuf (m : message) =
  { src_tid = m.m_tid; tag = m.m_tag; data = m.m_payload; pos = 0 }

let nrecv t ?(tid = -1) ?(tag = -1) () =
  Option.map to_recvbuf (take_unexpected t ~tid ~tag)

let recv t ?(tid = -1) ?(tag = -1) () =
  match take_unexpected t ~tid ~tag with
  | Some m -> to_recvbuf m
  | None ->
    let p = { p_tid = tid; p_tag = tag; p_result = None; p_waiter = None } in
    t.posted <- t.posted @ [ p ];
    to_recvbuf (Proc.suspend (fun resume -> p.p_waiter <- Some resume))

let probe t ?(tid = -1) ?(tag = -1) () =
  Queue.fold (fun acc m -> acc || matches ~tid ~tag m) false t.unexpected

let bufinfo rb = (rb.src_tid, rb.tag)

let expect rb kind what =
  if rb.pos >= Bytebuf.length rb.data then
    invalid_arg (Printf.sprintf "Pvm.upk%s: buffer exhausted" what);
  let k = Bytebuf.get_u8 rb.data rb.pos in
  if k <> kind then
    invalid_arg (Printf.sprintf "Pvm.upk%s: type mismatch (found kind %d)" what k);
  rb.pos <- rb.pos + 1

let upkint rb =
  expect rb k_int "int";
  let v = Bytebuf.get_int rb.data rb.pos in
  rb.pos <- rb.pos + 8;
  v

let upkdouble rb =
  expect rb k_double "double";
  let v = Int64.float_of_bits (Bytebuf.get_i64 rb.data rb.pos) in
  rb.pos <- rb.pos + 8;
  v

let upkstr rb =
  expect rb k_str "str";
  let n = Bytebuf.get_u32 rb.data rb.pos in
  rb.pos <- rb.pos + 4;
  let s = Bytebuf.to_string (Bytebuf.sub rb.data rb.pos n) in
  rb.pos <- rb.pos + n;
  s

let upkbytes rb =
  expect rb k_bytes "bytes";
  let n = Bytebuf.get_u32 rb.data rb.pos in
  rb.pos <- rb.pos + 4;
  let b = Bytebuf.sub rb.data rb.pos n in
  rb.pos <- rb.pos + n;
  b

(* Dissemination barrier on a reserved tag. *)
let barrier_tag = 0x7FFF_0000

let barrier t =
  let n = size t and r = rank t in
  if n > 1 then begin
    let k = ref 0 in
    while 1 lsl !k < n do
      let dist = 1 lsl !k in
      let sb = initsend t in
      pkint sb !k;
      send sb ~tid:(tid_of_rank t ((r + dist) mod n)) ~tag:(barrier_tag + !k);
      ignore
        (recv t
           ~tid:(tid_of_rank t ((r - dist + n) mod n))
           ~tag:(barrier_tag + !k) ());
      incr k
    done
  end

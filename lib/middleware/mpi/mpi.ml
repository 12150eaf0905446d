module Bytebuf = Engine.Bytebuf
module Ct = Circuit.Ct
module Madpers = Personalities.Madpers
module Proc = Engine.Proc

let any_source = -1

let any_tag = -1

(* Internal tag space: user tags must stay below; collectives use the top. *)
let coll_tag_base = 0x4000_0000

type message = { m_src : int; m_tag : int; m_payload : Bytebuf.t }

type pending_recv = {
  p_source : int;
  p_tag : int;
  mutable p_result : message option;
  mutable p_waiter : (message -> unit) option;
}

type t = {
  mp : Madpers.t;
  unexpected : message Queue.t;
  mutable posted : pending_recv list; (* in post order *)
}

type request =
  | Rsend
  | Rrecv of pending_recv

let rank t = Madpers.rank t.mp

let size t = Madpers.size t.mp

let node t = Ct.node (Madpers.circuit t.mp)

let matches ~source ~tag (m : message) =
  (source = any_source || source = m.m_src)
  && (tag = any_tag || tag = m.m_tag)

let charge t = Simnet.Node.cpu (node t) Calib.mpi_ns

let charge_async t = Simnet.Node.charge (node t) Calib.mpi_ns

let on_message t (m : message) =
  (* Match against posted receives in post order. *)
  let rec find acc = function
    | [] ->
      Queue.push m t.unexpected;
      t.posted <- List.rev acc
    | p :: rest ->
      if p.p_result = None && matches ~source:p.p_source ~tag:p.p_tag m then begin
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
               on_message t { m_src = src; m_tag = tag; m_payload = payload }));
       t)
    cts

let send t ~dst ~tag payload =
  if tag < 0 || tag >= coll_tag_base * 2 then invalid_arg "Mpi.send: bad tag";
  charge t;
  let out = Madpers.begin_packing t.mp ~dst in
  let tagbuf = Bytebuf.create 8 in
  Bytebuf.set_int tagbuf 0 tag;
  Madpers.pack out tagbuf;
  Madpers.pack out payload;
  Madpers.end_packing out

let isend t ~dst ~tag payload =
  charge_async t;
  let out = Madpers.begin_packing t.mp ~dst in
  let tagbuf = Bytebuf.create 8 in
  Bytebuf.set_int tagbuf 0 tag;
  Madpers.pack out tagbuf;
  Madpers.pack out payload;
  Madpers.end_packing out;
  Rsend

let take_unexpected t ~source ~tag =
  (* First match in arrival order. *)
  let n = Queue.length t.unexpected in
  let result = ref None in
  for _ = 1 to n do
    let m = Queue.pop t.unexpected in
    if !result = None && matches ~source ~tag m then result := Some m
    else Queue.push m t.unexpected
  done;
  !result

let irecv t ?(source = any_source) ?(tag = any_tag) () =
  let p = { p_source = source; p_tag = tag; p_result = None; p_waiter = None } in
  (match take_unexpected t ~source ~tag with
   | Some m -> p.p_result <- Some m
   | None -> t.posted <- t.posted @ [ p ]);
  Rrecv p

let unpack_result (m : message) = (m.m_src, m.m_tag, m.m_payload)

let test = function
  | Rsend -> Some (-1, -1, Bytebuf.create 0)
  | Rrecv p -> Option.map unpack_result p.p_result

let wait = function
  | Rsend -> (-1, -1, Bytebuf.create 0)
  | Rrecv p ->
    (match p.p_result with
     | Some m -> unpack_result m
     | None ->
       unpack_result
         (Proc.suspend (fun resume -> p.p_waiter <- Some resume)))

let waitall reqs = List.map wait reqs

let recv t ?(source = any_source) ?(tag = any_tag) () =
  (* The delivery path already charged the per-message cost. *)
  wait (irecv t ~source ~tag ())

let probe t ?(source = any_source) ?(tag = any_tag) () =
  let found = ref None in
  Queue.iter
    (fun m ->
       if !found = None && matches ~source ~tag m then
         found := Some (m.m_src, m.m_tag))
    t.unexpected;
  !found

(* ---------- collectives ---------- *)

type op = Sum | Max | Min

type datatype = Int_t | Float_t

let floats_to_buf v =
  let b = Bytebuf.create (8 * Array.length v) in
  Array.iteri (fun i x -> Bytebuf.set_i64 b (8 * i) (Int64.bits_of_float x)) v;
  b

let floats_of_buf b =
  let n = Bytebuf.length b / 8 in
  Array.init n (fun i -> Int64.float_of_bits (Bytebuf.get_i64 b (8 * i)))

let ints_to_buf v =
  let b = Bytebuf.create (8 * Array.length v) in
  Array.iteri (fun i x -> Bytebuf.set_int b (8 * i) x) v;
  b

let ints_of_buf b =
  let n = Bytebuf.length b / 8 in
  Array.init n (fun i -> Bytebuf.get_int b (8 * i))

let combine ~op ~datatype a b =
  let fop : float -> float -> float =
    match op with Sum -> ( +. ) | Max -> Float.max | Min -> Float.min
  in
  let iop : int -> int -> int =
    match op with Sum -> ( + ) | Max -> max | Min -> min
  in
  match datatype with
  | Float_t ->
    let va = floats_of_buf a and vb = floats_of_buf b in
    floats_to_buf (Array.mapi (fun i x -> fop x vb.(i)) va)
  | Int_t ->
    let va = ints_of_buf a and vb = ints_of_buf b in
    ints_to_buf (Array.mapi (fun i x -> iop x vb.(i)) va)

(* Internal point-to-point on reserved tags. *)
let csend t ~dst ~tag payload =
  let out = Madpers.begin_packing t.mp ~dst in
  let tagbuf = Bytebuf.create 8 in
  Bytebuf.set_int tagbuf 0 tag;
  Madpers.pack out tagbuf;
  Madpers.pack out payload;
  Madpers.end_packing out

let crecv t ~source ~tag =
  let _, _, payload = wait (irecv t ~source ~tag ()) in
  payload

(* Dissemination barrier: round k, exchange with rank +/- 2^k. *)
let barrier t =
  charge t;
  let n = size t and r = rank t in
  if n > 1 then begin
    let tag0 = coll_tag_base + 1 in
    let k = ref 0 in
    while 1 lsl !k < n do
      let dist = 1 lsl !k in
      let dst = (r + dist) mod n in
      let src = (r - dist + n) mod n in
      csend t ~dst ~tag:(tag0 + !k) (Bytebuf.create 0);
      ignore (crecv t ~source:src ~tag:(tag0 + !k));
      incr k
    done
  end

(* Binomial broadcast rooted anywhere (ranks rotated around the root). *)
let bcast t ~root data =
  charge t;
  let n = size t and r = rank t in
  let vrank = (r - root + n) mod n in
  let tag = coll_tag_base + 32 in
  let buf = ref (match data with Some b -> b | None -> Bytebuf.create 0) in
  if n > 1 then begin
    (match data with
     | None when vrank <> 0 -> ()
     | None -> invalid_arg "Mpi.bcast: root must supply data"
     | Some _ when vrank = 0 -> ()
     | Some _ -> () (* non-root data ignored *));
    (* Receive from parent. *)
    if vrank <> 0 then begin
      (* Parent clears the lowest set bit. *)
      let parent_v = vrank land (vrank - 1) in
      let parent = (parent_v + root) mod n in
      buf := crecv t ~source:parent ~tag
    end;
    (* Forward to children: set bits above the lowest set bit of vrank. *)
    let low = if vrank = 0 then n else vrank land (-vrank) in
    let mask = ref 1 in
    while !mask < low && vrank + !mask < n do
      let child = (vrank + !mask + root) mod n in
      csend t ~dst:child ~tag !buf;
      mask := !mask lsl 1
    done
  end;
  !buf

(* Binomial-tree reduce (commutative ops). *)
let reduce t ~root ~op ~datatype data =
  charge t;
  let n = size t and r = rank t in
  let vrank = (r - root + n) mod n in
  let tag = coll_tag_base + 64 in
  let acc = ref data in
  if n > 1 then begin
    let mask = ref 1 in
    let continue = ref true in
    while !continue && !mask < n do
      if vrank land !mask <> 0 then begin
        (* Send to parent and leave. *)
        let parent = (vrank - !mask + root) mod n in
        csend t ~dst:parent ~tag !acc;
        continue := false
      end
      else if vrank + !mask < n then begin
        let child = (vrank + !mask + root) mod n in
        let contrib = crecv t ~source:child ~tag in
        acc := combine ~op ~datatype !acc contrib
      end;
      mask := !mask lsl 1
    done
  end;
  if r = root then Some !acc else None

let allreduce t ~op ~datatype data =
  match reduce t ~root:0 ~op ~datatype data with
  | Some combined when rank t = 0 -> bcast t ~root:0 (Some combined)
  | _ -> bcast t ~root:0 None

let gather t ~root data =
  charge t;
  let n = size t and r = rank t in
  let tag = coll_tag_base + 96 in
  if r = root then begin
    let out = Array.make n (Bytebuf.create 0) in
    out.(r) <- data;
    for _ = 1 to n - 1 do
      let src, _, payload = wait (irecv t ~source:any_source ~tag ()) in
      out.(src) <- payload
    done;
    Some out
  end
  else begin
    csend t ~dst:root ~tag data;
    None
  end

let scatter t ~root parts =
  charge t;
  let n = size t and r = rank t in
  let tag = coll_tag_base + 128 in
  if r = root then begin
    match parts with
    | None -> invalid_arg "Mpi.scatter: root must supply parts"
    | Some parts ->
      if Array.length parts <> n then
        invalid_arg "Mpi.scatter: need one part per rank";
      for dst = 0 to n - 1 do
        if dst <> r then csend t ~dst ~tag parts.(dst)
      done;
      parts.(r)
  end
  else crecv t ~source:root ~tag

let alltoall t parts =
  charge t;
  let n = size t and r = rank t in
  if Array.length parts <> n then
    invalid_arg "Mpi.alltoall: need one part per rank";
  let tag = coll_tag_base + 160 in
  let out = Array.make n (Bytebuf.create 0) in
  out.(r) <- parts.(r);
  for dst = 0 to n - 1 do
    if dst <> r then csend t ~dst ~tag parts.(dst)
  done;
  for _ = 1 to n - 1 do
    let src, _, payload = wait (irecv t ~source:any_source ~tag ()) in
    out.(src) <- payload
  done;
  out

(* Three parallel arrays: [prio] and [seq] are int arrays, so keys stay
   unboxed (a sift compares without chasing pointers, and key moves pay no
   write barrier), and [vals] holds the payloads. The tree is 4-ary —
   children of [i] are [4i+1 .. 4i+4] — which halves the depth of a
   binary heap; sifts move a hole instead of swapping. Every value slot at
   or beyond [size] holds [dummy], so a popped value is not kept alive by
   the queue. *)

type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable size : int;
  mutable next_seq : int;
  dummy : 'a;
}

let create ~dummy =
  { prio = [||]; seq = [||]; vals = [||]; size = 0; next_seq = 0; dummy }

let length h = h.size

let is_empty h = h.size = 0

let min_prio h = if h.size = 0 then max_int else h.prio.(0)

let grow h =
  let cap = Array.length h.prio in
  let cap = if cap = 0 then 64 else cap * 2 in
  let prio = Array.make cap 0 and seq = Array.make cap 0 in
  let vals = Array.make cap h.dummy in
  Array.blit h.prio 0 prio 0 h.size;
  Array.blit h.seq 0 seq 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.prio <- prio;
  h.seq <- seq;
  h.vals <- vals

(* Keys order by priority then insertion sequence, so equal-priority
   entries come out FIFO. *)

(* Fill the hole at [i] with key (p, s) and value [v], first moving the
   hole up past every parent that orders after the key. *)
let sift_up h i p s v =
  let prio = h.prio and seq = h.seq and vals = h.vals in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pp = prio.(parent) in
    if p < pp || (p = pp && s < seq.(parent)) then begin
      prio.(!i) <- pp;
      seq.(!i) <- seq.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else continue := false
  done;
  prio.(!i) <- p;
  seq.(!i) <- s;
  vals.(!i) <- v

(* Fill the hole at [i] with key (p, s) and value [v], first moving the
   hole down while the smallest of its (up to four) children orders
   before the key. *)
let sift_down h i p s v =
  let prio = h.prio and seq = h.seq and vals = h.vals and n = h.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= n then continue := false
    else begin
      let last = if first + 3 < n then first + 3 else n - 1 in
      let m = ref first in
      for c = first + 1 to last do
        let pc = prio.(c) and pm = prio.(!m) in
        if pc < pm || (pc = pm && seq.(c) < seq.(!m)) then m := c
      done;
      let m = !m in
      let pm = prio.(m) in
      if pm < p || (pm = p && seq.(m) < s) then begin
        prio.(!i) <- pm;
        seq.(!i) <- seq.(m);
        vals.(!i) <- vals.(m);
        i := m
      end
      else continue := false
    end
  done;
  prio.(!i) <- p;
  seq.(!i) <- s;
  vals.(!i) <- v

let push h ~prio v =
  if h.size = Array.length h.prio then grow h;
  let s = h.next_seq in
  h.next_seq <- s + 1;
  let i = h.size in
  h.size <- i + 1;
  sift_up h i prio s v

(* Take the entry at [i] out: the last entry fills its hole, and the
   vacated last slot gets the filler. *)
let remove h i =
  let v = h.vals.(i) in
  let last = h.size - 1 in
  h.size <- last;
  let p = h.prio.(last) and s = h.seq.(last) and lv = h.vals.(last) in
  h.vals.(last) <- h.dummy;
  if i < last then begin
    let parent = (i - 1) / 4 in
    if i > 0 && (p < h.prio.(parent) || (p = h.prio.(parent) && s < h.seq.(parent)))
    then sift_up h i p s lv
    else sift_down h i p s lv
  end;
  v

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  remove h 0

(* Arbitrary-entry selection below serves the non-FIFO schedule policies
   (see Sim.policy); the default FIFO schedule only ever [pop]s. *)

let min_count h =
  if h.size = 0 then 0
  else begin
    let p = h.prio.(0) in
    let n = ref 0 in
    for i = 0 to h.size - 1 do
      if h.prio.(i) = p then incr n
    done;
    !n
  end

let pop_min_nth h n =
  if h.size = 0 then invalid_arg "Heap.pop_min_nth: empty heap";
  let p = h.prio.(0) in
  (* Slots of the smallest-priority bucket, sorted by sequence number =
     insertion order. *)
  let slots = ref [] in
  for i = h.size - 1 downto 0 do
    if h.prio.(i) = p then slots := i :: !slots
  done;
  let slots = List.sort (fun a b -> compare h.seq.(a) h.seq.(b)) !slots in
  let len = List.length slots in
  let n = if n < 0 then 0 else if n >= len then len - 1 else n in
  remove h (List.nth slots n)

let clear h =
  h.size <- 0;
  h.prio <- [||];
  h.seq <- [||];
  h.vals <- [||]

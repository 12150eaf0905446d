(* Two layers. The queued values live in a slab, [vals], indexed by slot:
   a value never moves while it is queued. The heap proper is two int
   arrays in tree order, [prio] and [key], where [key] packs the entry's
   insertion sequence number above its slot number. Sifts therefore move
   only unboxed ints (no write barrier, no pointer chasing), comparing
   [key]s compares sequence numbers (they are unique), and [pos] maps a
   slot back to its tree position so an entry can be cancelled in place.

   The tree is 4-ary — children of [i] are [4i+1 .. 4i+4] — which halves
   the depth of a binary heap; sifts move a hole instead of swapping.

   A handle is the entry's [key]. It names a queued entry exactly when
   [pos] of its slot is a tree position whose [key] is the handle, so a
   handle whose entry was popped or cancelled, even one whose slot has
   since been reused, names nothing. A vacant slot's [pos] is negative
   and links the free list: [-2 - next], [next] = -1 ending the list.
   Every vacant value slot holds [dummy]. *)

type handle = int

type 'a t = {
  mutable prio : int array;
  mutable key : int array;
  mutable vals : 'a array;
  mutable pos : int array;
  mutable size : int;
  mutable used : int; (* slots [0, used) are queued or on the free list *)
  mutable free : int; (* head of the free list, -1 when empty *)
  mutable next_seq : int;
  dummy : 'a;
}

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let max_cap = 1 lsl slot_bits
let max_seq = max_int lsr slot_bits

(* A drained heap whose arrays grew past this many entries gives them
   back: a burst (a connection storm, a bulk transfer) would otherwise
   keep its peak queue's arrays for the rest of the run. *)
let keep_cap = 4096

let create ~dummy =
  { prio = [||]; key = [||]; vals = [||]; pos = [||]; size = 0; used = 0;
    free = -1; next_seq = 0; dummy }

let length h = h.size

let is_empty h = h.size = 0

let min_prio h = if h.size = 0 then max_int else h.prio.(0)

let release_arrays h =
  h.prio <- [||];
  h.key <- [||];
  h.vals <- [||];
  h.pos <- [||];
  h.used <- 0;
  h.free <- -1

(* Only called when full: every slot is then queued, none is free. *)
let grow h =
  let cap = Array.length h.prio in
  if cap >= max_cap then
    failwith (Printf.sprintf "Heap.push: more than %d entries" max_cap);
  let cap = if cap = 0 then 64 else min max_cap (cap * 2) in
  let prio = Array.make cap 0 and key = Array.make cap 0 in
  let vals = Array.make cap h.dummy and pos = Array.make cap 0 in
  Array.blit h.prio 0 prio 0 h.size;
  Array.blit h.key 0 key 0 h.size;
  Array.blit h.vals 0 vals 0 h.used;
  Array.blit h.pos 0 pos 0 h.used;
  h.prio <- prio;
  h.key <- key;
  h.vals <- vals;
  h.pos <- pos

(* Entries order by priority then key (= insertion order), so
   equal-priority entries come out FIFO. *)

(* Fill the hole at [i] with entry (p, k), first moving the hole up past
   every parent that orders after it. *)
let sift_up h i p k =
  let prio = h.prio and key = h.key and pos = h.pos in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    let pp = prio.(parent) and kp = key.(parent) in
    if p < pp || (p = pp && k < kp) then begin
      prio.(!i) <- pp;
      key.(!i) <- kp;
      pos.(kp land slot_mask) <- !i;
      i := parent
    end
    else continue := false
  done;
  prio.(!i) <- p;
  key.(!i) <- k;
  pos.(k land slot_mask) <- !i

(* Fill the hole at [i] with entry (p, k), first moving the hole down
   while the smallest of its (up to four) children orders before it. *)
let sift_down h i p k =
  let prio = h.prio and key = h.key and pos = h.pos and n = h.size in
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
        if pc < pm || (pc = pm && key.(c) < key.(!m)) then m := c
      done;
      let m = !m in
      let pm = prio.(m) and km = key.(m) in
      if pm < p || (pm = p && km < k) then begin
        prio.(!i) <- pm;
        key.(!i) <- km;
        pos.(km land slot_mask) <- !i;
        i := m
      end
      else continue := false
    end
  done;
  prio.(!i) <- p;
  key.(!i) <- k;
  pos.(k land slot_mask) <- !i

let push h ~prio v =
  if h.size = Array.length h.prio then grow h;
  let seq = h.next_seq in
  if seq > max_seq then failwith "Heap.push: sequence numbers exhausted";
  h.next_seq <- seq + 1;
  let slot =
    if h.free >= 0 then begin
      let s = h.free in
      h.free <- -2 - h.pos.(s);
      s
    end
    else begin
      let s = h.used in
      h.used <- s + 1;
      s
    end
  in
  h.vals.(slot) <- v;
  let k = (seq lsl slot_bits) lor slot in
  let i = h.size in
  h.size <- i + 1;
  sift_up h i prio k;
  k

(* Take the entry at tree position [i] out and return its value: the
   last entry fills the hole, the slot goes on the free list holding the
   filler, and a drained heap with large arrays releases them. *)
let remove h i =
  let slot = h.key.(i) land slot_mask in
  let last = h.size - 1 in
  h.size <- last;
  if i < last then begin
    let p = h.prio.(last) and k = h.key.(last) in
    let parent = (i - 1) / 4 in
    if i > 0
    && (p < h.prio.(parent) || (p = h.prio.(parent) && k < h.key.(parent)))
    then sift_up h i p k
    else sift_down h i p k
  end;
  let v = h.vals.(slot) in
  if last = 0 && Array.length h.prio > keep_cap then release_arrays h
  else begin
    h.vals.(slot) <- h.dummy;
    h.pos.(slot) <- -2 - h.free;
    h.free <- slot
  end;
  v

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty heap";
  remove h 0

let cancel h k =
  let slot = k land slot_mask in
  if k >= 0 && slot < h.used then begin
    let i = h.pos.(slot) in
    if i >= 0 && h.key.(i) = k then ignore (remove h i)
  end

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
  (* Positions of the smallest-priority bucket, sorted by key = insertion
     order. *)
  let slots = ref [] in
  for i = h.size - 1 downto 0 do
    if h.prio.(i) = p then slots := i :: !slots
  done;
  let slots = List.sort (fun a b -> compare h.key.(a) h.key.(b)) !slots in
  let len = List.length slots in
  let n = if n < 0 then 0 else if n >= len then len - 1 else n in
  remove h (List.nth slots n)

let clear h =
  h.size <- 0;
  release_arrays h

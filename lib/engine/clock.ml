type kind = Virtual | Monotonic

type t = {
  kind : kind;
  id : int;
  now : unit -> int;
  events : (unit -> unit) Heap.t;
}

type timer = { heap : (unit -> unit) Heap.t; handle : Heap.handle }

(* Atomic: clock capabilities are normally built at setup time, but a
   lazily-forced module may create one from a worker domain. *)
let next_id = Atomic.make 0

let make ~kind ~now ~events =
  { kind; id = Atomic.fetch_and_add next_id 1 + 1; now; events }

let kind t = t.kind
let id t = t.id
let is_virtual t = t.kind = Virtual
let now t = t.now ()

let push t dt f =
  Heap.push t.events ~prio:(t.now () + if dt < 0 then 0 else dt) f

let after t dt f = ignore (push t dt f)
let at t time f = after t (time - t.now ()) f
let arm t dt f = { heap = t.events; handle = push t dt f }
let cancel tm = Heap.cancel tm.heap tm.handle

(* The handle of an entry already gone names nothing, and nothing is ever
   pushed on this heap again. *)
let none =
  let heap = Heap.create ~dummy:ignore in
  let handle = Heap.push heap ~prio:0 ignore in
  Heap.cancel heap handle;
  { heap; handle }

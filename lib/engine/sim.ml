type policy =
  | Fifo
  | Lifo
  | Random of int
  | Starve_oldest

let policy_to_string = function
  | Fifo -> "fifo"
  | Lifo -> "lifo"
  | Random seed -> Printf.sprintf "random-%d" seed
  | Starve_oldest -> "starve"

let policy_of_string s =
  match s with
  | "fifo" -> Some Fifo
  | "lifo" -> Some Lifo
  | "starve" -> Some Starve_oldest
  | _ ->
    (match String.index_opt s '-' with
     | Some i when String.sub s 0 i = "random" ->
       (try
          Some (Random (int_of_string (String.sub s (i + 1)
                                         (String.length s - i - 1))))
        with Failure _ -> None)
     | _ -> None)

type t = {
  mutable clock : int;
  events : (unit -> unit) Heap.t;
  root_rng : Rng.t;
  mutable stopped : bool;
  mutable policy : policy;
  mutable sched_rng : Rng.t; (* consulted only under [Random] *)
  mutable cap : Clock.t option; (* cached capability view, built on demand *)
  mutable dispatched : int;
}

(* Every live simulator, so [Lifecycle.reset_registries] (= [Padico.reset])
   can drop undelivered events along with the uid-keyed registries: a
   bench process sweeping many scenarios would otherwise keep every dead
   grid's event closures (and whatever grid state they capture) reachable
   through abandoned heaps. The list itself is dropped on reset, so the
   sims become collectable too. *)
let live : t list ref = ref []

let () =
  Lifecycle.on_reset (fun () ->
      List.iter (fun t -> Heap.clear t.events) !live;
      live := [])

let create ?(seed = 42) () =
  let t =
    { clock = 0; events = Heap.create ~dummy:ignore;
      root_rng = Rng.create seed; stopped = false; policy = Fifo;
      sched_rng = Rng.create 0; cap = None; dispatched = 0 }
  in
  live := t :: !live;
  t

let now t = t.clock

let rng t = t.root_rng

let policy t = t.policy

let set_policy t p =
  t.policy <- p;
  match p with Random seed -> t.sched_rng <- Rng.create seed | _ -> ()

let at t time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %d is in the past (now %d)" time t.clock);
  ignore (Heap.push t.events ~prio:time f)

let after t dt f =
  let dt = if dt < 0 then 0 else dt in
  ignore (Heap.push t.events ~prio:(t.clock + dt) f)

let pending t = Heap.length t.events

let events_dispatched t = t.dispatched

let pick_index t n =
  match t.policy with
  | Fifo -> 0
  | Lifo -> n - 1
  | Random _ -> Rng.int t.sched_rng n
  | Starve_oldest -> if n > 1 then 1 else 0

let step t =
  if Heap.is_empty t.events then false
  else begin
    t.clock <- Heap.min_prio t.events;
    let f =
      match t.policy with
      | Fifo -> Heap.pop t.events
      | _ ->
        Heap.pop_min_nth t.events (pick_index t (Heap.min_count t.events))
    in
    t.dispatched <- t.dispatched + 1;
    f ();
    true
  end

let run ?until t =
  t.stopped <- false;
  let until = match until with Some u -> u | None -> max_int in
  let continue = ref true in
  while !continue do
    if t.stopped || Heap.is_empty t.events then continue := false
    else if Heap.min_prio t.events > until then begin
      (* Advance (never rewind) to the horizon. The guard matters when a
         previous run was stopped beyond [until]: the old unconditional
         assignment dragged the clock backward, so a later [at] could
         legally schedule into what had already been the past. Both exits
         now agree the clock is monotone: [stop] freezes it at the last
         dispatched event, this branch clamps it forward. *)
      if until > t.clock then t.clock <- until;
      continue := false
    end
    else ignore (step t)
  done

let stop t = t.stopped <- true

let stopped t = t.stopped

let clear_stopped t = t.stopped <- false

(* ---------- sharded-runtime hooks (see Shard) ----------
   A shard worker drives its simulator manually instead of through [run]:
   it peeks the next local timestamp, merges it against staged cross-shard
   frames, and either [step]s or dispatches a frame's closure at the
   frame's timestamp. *)

let peek_next t = Heap.min_prio t.events

let advance_to t time =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.advance_to: time %d is in the past (now %d)" time
         t.clock);
  t.clock <- time

let dispatch_at t time f =
  advance_to t time;
  t.dispatched <- t.dispatched + 1;
  f ()

let clock t =
  match t.cap with
  | Some c -> c
  | None ->
    let c =
      Clock.make ~kind:Clock.Virtual ~now:(fun () -> t.clock) ~events:t.events
    in
    t.cap <- Some c;
    c

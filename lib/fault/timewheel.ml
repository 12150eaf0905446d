type timer = {
  mutable cb : unit -> unit; (* [spent] once fired or cancelled *)
  wheel : t;
  slot : slot;
  deadline : int; (* requested (unrounded) firing instant *)
  seq : int; (* arm order, the tie-break within a deadline *)
}

and slot = {
  idx : int;
  mutable entries : timer list;
  mutable alive : int; (* entries not cancelled *)
  mutable handle : Engine.Clock.timer option; (* None once fired or released *)
}

and t = {
  clk : Engine.Clock.t;
  slot_ns : int;
  slots : (int, slot) Hashtbl.t;
  mutable live : int;
  mutable next_seq : int;
}

let create_on ?(slot_ns = 65_536) clk =
  if slot_ns <= 0 then invalid_arg "Timewheel: slot_ns must be positive";
  { clk; slot_ns; slots = Hashtbl.create 64; live = 0; next_seq = 0 }

let create ?slot_ns sim = create_on ?slot_ns (Engine.Sim.clock sim)

(* The callback of a timer that can no longer fire. Compared physically. *)
let spent () = ()

(* Never armed, so never fired or cancelled: its wheel (over a clock that
   schedules nothing) is never read. *)
let none =
  let inert =
    Engine.Clock.make ~kind:Engine.Clock.Virtual ~now:(fun () -> 0)
      ~schedule:(fun _ _ -> ()) ~arm:(fun _ _ () -> ())
  in
  { cb = spent; wheel = create_on inert;
    slot = { idx = 0; entries = []; alive = 0; handle = None };
    deadline = 0; seq = -1 }

(* One shared wheel per clock, keyed by Clock.id; the list stays tiny (one
   entry per live simulation or host loop). Mutex-guarded: in a sharded
   run every shard arms timers through here, each against its own
   shard's clock — distinct wheels, one registry. *)
let shared : (int * t) list ref = ref []
let shared_lock = Mutex.create ()
let () = Engine.Lifecycle.on_reset (fun () ->
    Mutex.protect shared_lock (fun () -> shared := []))

let for_clock clk =
  let key = Engine.Clock.id clk in
  Mutex.protect shared_lock (fun () ->
      match List.find_opt (fun (k, _) -> k = key) !shared with
      | Some (_, w) -> w
      | None ->
        let w = create_on clk in
        shared := (key, w) :: !shared;
        (* Keep the registry from growing across many short-lived simulations
           (tests): drop entries whose clock is not the one being asked for once
           the list gets long. Correctness is unaffected — a dropped wheel is
           simply recreated if its clock is ever used again. *)
        if List.length !shared > 64 then
          shared := List.filteri (fun i _ -> i < 32) !shared;
        w)

let for_sim sim = for_clock (Engine.Sim.clock sim)

let fire_slot t idx =
  match Hashtbl.find_opt t.slots idx with
  | None -> ()
  | Some s ->
    Hashtbl.remove t.slots idx;
    (* A timer of this slot cancelled while it fires must leave the table
       alone: a callback may already have armed a new slot at [idx]. *)
    s.handle <- None;
    (* Fire in (requested deadline, arm order): the wheel then observes the
       same relative firing order a per-timer heap would, even when timers
       with different deadlines share a slot. For equal deadlines this is
       exactly the historical arm order. *)
    let ordered =
      List.sort
        (fun a b ->
           if a.deadline <> b.deadline then compare a.deadline b.deadline
           else compare a.seq b.seq)
        s.entries
    in
    (* A fired timer its owner still holds keeps only the slot record. *)
    s.entries <- [];
    List.iter
      (fun timer ->
         let f = timer.cb in
         if f != spent then begin
           timer.cb <- spent;
           t.live <- t.live - 1;
           f ()
         end)
      ordered

let arm t ~after_ns f =
  let after_ns = max 0 after_ns in
  let now = Engine.Clock.now t.clk in
  let deadline = now + after_ns in
  (* Round up to the next slot boundary: never fire early. *)
  let idx = (deadline + t.slot_ns - 1) / t.slot_ns in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let slot =
    match Hashtbl.find_opt t.slots idx with
    | Some s -> s
    | None ->
      let s = { idx; entries = []; alive = 0; handle = None } in
      Hashtbl.replace t.slots idx s;
      s.handle <-
        Some
          (Engine.Clock.arm t.clk
             (max 0 ((idx * t.slot_ns) - now))
             (fun () -> fire_slot t idx));
      s
  in
  let timer = { cb = f; wheel = t; slot; deadline; seq } in
  slot.entries <- timer :: slot.entries;
  slot.alive <- slot.alive + 1;
  t.live <- t.live + 1;
  timer

let cancel timer =
  if timer.cb != spent then begin
    timer.cb <- spent;
    let t = timer.wheel and s = timer.slot in
    t.live <- t.live - 1;
    s.alive <- s.alive - 1;
    (* A slot with no live entry left releases its clock timer, so the
       clock's queue holds no dead slot event: the simulator's heap stays
       as deep as the live timers, and a wall-clock reactor can quiesce. *)
    if s.alive = 0 then
      match s.handle with
      | None -> ()
      | Some h ->
        s.handle <- None;
        s.entries <- [];
        Hashtbl.remove t.slots s.idx;
        Engine.Clock.cancel h
  end

let pending t = t.live

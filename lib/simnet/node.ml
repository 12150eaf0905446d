type t = {
  id : int;
  uid : int;
  name : string;
  sim : Engine.Sim.t;
  clock : Engine.Clock.t;
  mutable busy_until : int;
  mutable up : bool;
  mutable state_watchers : (bool -> unit) list;
}

let next_uid = Atomic.make 0

let create ?clock sim ~id ~name =
  let clock =
    match clock with Some c -> c | None -> Engine.Sim.clock sim
  in
  { id; uid = Atomic.fetch_and_add next_uid 1 + 1; name; sim; clock;
    busy_until = 0; up = true; state_watchers = [] }

let id t = t.id
let uid t = t.uid
let name t = t.name
let sim t = t.sim
let clock t = t.clock

(* Queue [cost] ns of work behind the CPU; the instant it completes. *)
let occupy t cost =
  let now = Engine.Sim.now t.sim in
  let start = if t.busy_until > now then t.busy_until else now in
  t.busy_until <- start + cost;
  t.busy_until

let cpu_async t cost k =
  assert (cost >= 0);
  if Engine.Clock.is_virtual t.clock then Engine.Sim.at t.sim (occupy t cost) k
  else
    (* Wall clock: modelled CPU costs are not charged — real host time is
       the measurement. Keep the deferral so callback ordering (queue, then
       run) matches the simulated path. *)
    Engine.Clock.after t.clock 0 k

let charge t cost =
  assert (cost >= 0);
  if Engine.Clock.is_virtual t.clock then ignore (occupy t cost)

let cpu t cost =
  Engine.Proc.suspend (fun resume -> cpu_async t cost (fun () -> resume ()))

let cpu_busy_until t = t.busy_until

let is_up t = t.up

let set_up t up =
  if t.up <> up then begin
    t.up <- up;
    List.iter (fun f -> f up) t.state_watchers
  end

let on_state t f = t.state_watchers <- f :: t.state_watchers

let spawn t ?name f =
  let name =
    match name with Some n -> t.name ^ "/" ^ n | None -> t.name ^ "/proc"
  in
  Engine.Proc.spawn_on t.clock ~name f

let pp fmt t = Format.fprintf fmt "%s#%d" t.name t.id

module Clock = Engine.Clock
module Heap = Engine.Heap

let log = Logs.Src.create "hostio.loop" ~doc:"real-OS reactor"

module Log = (val Logs.src_log log : Logs.LOG)

type fd_state = {
  mutable on_read : (unit -> unit) option;
  mutable on_write : (unit -> unit) option;
  passive : bool;
}

type t = {
  t0 : float;
  mutable last_now : int; (* monotonicity clamp over gettimeofday *)
  timers : (unit -> unit) Heap.t; (* the clock's queue: armed, not yet fired *)
  fds : (Unix.file_descr, fd_state) Hashtbl.t;
  (* Interest sets: exactly the fds with a read/write callback, so a
     select round is O(interested), not O(watched) — an idle watched
     connection costs nothing per iteration. *)
  read_set : (Unix.file_descr, unit) Hashtbl.t;
  write_set : (Unix.file_descr, unit) Hashtbl.t;
  mutable active_fds : int;
  mutable stopped : bool;
  mutable cap : Clock.t option;
  (* stats *)
  mutable iterations : int;
  mutable timers_fired : int;
  mutable fd_events : int;
}

let now_ns t =
  let n = int_of_float ((Unix.gettimeofday () -. t.t0) *. 1e9) in
  if n > t.last_now then t.last_now <- n;
  t.last_now

(* Recover the loop behind a Clock.t capability: keyed by Clock.id so the
   engine stays free of any Hostio dependency. *)
let by_clock : (int, t) Hashtbl.t = Hashtbl.create 8
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset by_clock)

let clock t =
  match t.cap with
  | Some c -> c
  | None ->
    let c =
      Clock.make ~kind:Clock.Monotonic ~now:(fun () -> now_ns t)
        ~events:t.timers
    in
    t.cap <- Some c;
    Hashtbl.replace by_clock (Clock.id c) t;
    c

let of_clock c = Hashtbl.find_opt by_clock (Clock.id c)

let create () =
  { t0 = Unix.gettimeofday (); last_now = 0;
    timers = Heap.create ~dummy:ignore;
    fds = Hashtbl.create 64; read_set = Hashtbl.create 64;
    write_set = Hashtbl.create 64; active_fds = 0;
    stopped = false; cap = None; iterations = 0; timers_fired = 0;
    fd_events = 0 }

(* ---------- file descriptors ---------- *)

(* Unix.select uses FD_SET on a fixed-size bitmap: a descriptor numbered
   >= FD_SETSIZE silently corrupts adjacent memory instead of failing.
   OCaml's Unix.file_descr is the raw int on Unix, so read it and refuse
   loudly. *)
let fd_limit = 1024

let watch_fd t fd ~passive =
  if Hashtbl.mem t.fds fd then invalid_arg "Hostio.Loop: fd already watched";
  let fdno : int = Obj.magic fd in
  if fdno >= fd_limit then
    invalid_arg
      (Printf.sprintf
         "Hostio.Loop: fd %d is beyond the select() FD_SETSIZE limit (%d); \
          the host backend cannot watch it — run large edge sweeps on the \
          sim backend, or cap host clients below the fd ceiling"
         fdno fd_limit);
  Hashtbl.replace t.fds fd { on_read = None; on_write = None; passive };
  if not passive then t.active_fds <- t.active_fds + 1

let fd_state t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some s -> s
  | None -> invalid_arg "Hostio.Loop: fd not watched"

let set_interest set fd = function
  | Some _ -> Hashtbl.replace set fd ()
  | None -> Hashtbl.remove set fd

let set_read t fd cb =
  (fd_state t fd).on_read <- cb;
  set_interest t.read_set fd cb

let set_write t fd cb =
  (fd_state t fd).on_write <- cb;
  set_interest t.write_set fd cb

let unwatch_fd t fd =
  match Hashtbl.find_opt t.fds fd with
  | None -> ()
  | Some s ->
    Hashtbl.remove t.fds fd;
    Hashtbl.remove t.read_set fd;
    Hashtbl.remove t.write_set fd;
    if not s.passive then t.active_fds <- t.active_fds - 1

(* ---------- running ---------- *)

let fire_due t =
  let fired = ref 0 in
  let continue = ref true in
  (* Re-read the clock each round: a callback may arm a 0 ns timer (yields
     of green threads) that must run before we go back to select. Bound the
     burst so runaway yield loops still reach the fd poll. *)
  while !continue && !fired < 100_000 do
    if Heap.is_empty t.timers || Heap.min_prio t.timers > now_ns t then
      continue := false
    else begin
      let f = Heap.pop t.timers in
      t.timers_fired <- t.timers_fired + 1;
      incr fired;
      f ()
    end
  done

let select_once t ~timeout =
  let rl = ref [] and wl = ref [] in
  Hashtbl.iter (fun fd () -> rl := fd :: !rl) t.read_set;
  Hashtbl.iter (fun fd () -> wl := fd :: !wl) t.write_set;
  let r, w, _ =
    try Unix.select !rl !wl [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  t.iterations <- t.iterations + 1;
  let deliver which fd =
    (* Look the state up again: an earlier callback in this batch may have
       unwatched the fd or dropped the interest. *)
    match Hashtbl.find_opt t.fds fd with
    | None -> ()
    | Some s ->
      (match which s with
       | None -> ()
       | Some cb ->
         t.fd_events <- t.fd_events + 1;
         cb ())
  in
  List.iter (deliver (fun s -> s.on_read)) r;
  List.iter (deliver (fun s -> s.on_write)) w

let max_idle_slice = 0.25 (* s; re-check liveness at least this often *)

let run ?until_ns t =
  t.stopped <- false;
  let continue = ref true in
  while !continue do
    fire_due t;
    if t.stopped then continue := false
    else begin
      let next = Heap.min_prio t.timers in
      let now = now_ns t in
      let until = match until_ns with Some u -> u | None -> max_int in
      if now >= until || (next = max_int && t.active_fds = 0) then
        continue := false
      else begin
        let horizon = min next until in
        let horizon =
          if horizon = max_int then now + int_of_float (max_idle_slice *. 1e9)
          else horizon
        in
        let timeout =
          min max_idle_slice (float_of_int (max 0 (horizon - now)) /. 1e9)
        in
        select_once t ~timeout
      end
    end
  done

let stop t = t.stopped <- true

(* ---------- stats ---------- *)

let iterations t = t.iterations
let timers_fired t = t.timers_fired
let fd_events t = t.fd_events
let live_timers t = Heap.length t.timers
let watched_fds t = Hashtbl.length t.fds
let active_fds t = t.active_fds

module Clock = Engine.Clock
module Node = Simnet.Node
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics
module Event = Padico_obs.Event

type config = {
  interval_ns : int;
  window : int;
  suspect_phi : float;
  confirm_phi : float;
  wan_floor : int;
}

let default_config =
  {
    interval_ns = 1_000_000;
    window = 8;
    suspect_phi = 1.0;
    confirm_phi = 2.0;
    wan_floor = 4;
  }

type verdict = Alive | Suspect | Confirmed

type peer_state = {
  prank : int;
  mutable last_heard : int;
  mutable last_sent : int;
  mutable floor : int;  (* minimum modelled mean, ns *)
  samples : int array;  (* inter-arrival ring, ns *)
  mutable nsamples : int;
  mutable next_slot : int;
  mutable sum : int;
  mutable state : verdict;
}

type cbs = {
  send_hb : int -> unit;
  on_suspect : int -> unit;
  on_refute : int -> unit;
  on_confirm : int -> unit;
}

type t = {
  dname : string;
  node : Node.t;
  clock : Clock.t;
  cfg : config;
  tbl : (int, peer_state) Hashtbl.t;
  mutable order : int array;  (* sorted ranks: the sweep is deterministic *)
  mutable run : bool;
  mutable cbs : cbs option;
  mutable tick_timer : (unit -> unit) option; (* cancel thunk *)
  mutable hb_sent : int;
  mutable suspects : int;
  mutable refutes : int;
  mutable confirms : int;
}

let config t = t.cfg

let running t = t.run

(* phi = log10 of the (exponentially modelled) probability that a live peer
   stays silent this long: 0.434 * elapsed / mean inter-arrival. A peer we
   have never heard from gets [window] intervals as its modelled mean — a
   bootstrap grace that must outlast link establishment (a TCP handshake
   across a multi-millisecond WAN can easily exceed a few heartbeat
   periods, and confirming a peer whose first frame is still in flight
   split-brains the group). Once samples exist the mean follows them,
   carrying a prior of two intervals and floored at the heartbeat period —
   piggybacked traffic can arrive far more often than heartbeats, and a
   burst of microsecond inter-arrivals must not turn the first idle
   millisecond into a false confirmation.

   Wide-area peers carry a higher per-peer floor ([wan_floor] intervals):
   heartbeats ride an in-order byte stream, so one lost segment on a lossy
   WAN silences the peer for a fast-retransmit round trip — several
   milliseconds that the sub-interval inter-arrivals of pipelined
   heartbeats know nothing about. The floor keeps that stall below the
   confirmation horizon. *)
let phi_of t ps ~now =
  let elapsed = now - ps.last_heard in
  if elapsed <= 0 then 0.0
  else begin
    let i = t.cfg.interval_ns in
    let mean =
      if ps.nsamples = 0 then max (i * max 1 t.cfg.window) ps.floor
      else begin
        let m = (ps.sum + (2 * i)) / (ps.nsamples + 1) in
        if m < ps.floor then ps.floor else m
      end
    in
    0.4342944819 *. float_of_int elapsed /. float_of_int mean
  end

let phi t ~peer =
  match Hashtbl.find_opt t.tbl peer with
  | None -> 0.0
  | Some ps ->
    if ps.state = Confirmed then infinity
    else phi_of t ps ~now:(Clock.now t.clock)

let max_phi t =
  let now = Clock.now t.clock in
  Array.fold_left
    (fun acc r ->
       match Hashtbl.find_opt t.tbl r with
       | Some ps when ps.state <> Confirmed ->
         Float.max acc (phi_of t ps ~now)
       | _ -> acc)
    0.0 t.order

let verdict t ~peer =
  match Hashtbl.find_opt t.tbl peer with
  | None -> Alive
  | Some ps -> ps.state

let peers t = Array.to_list t.order

type stats = {
  hb_sent : int;
  suspects : int;
  refutes : int;
  confirms : int;
  monitored : int;
}

let stats (t : t) =
  {
    hb_sent = t.hb_sent;
    suspects = t.suspects;
    refutes = t.refutes;
    confirms = t.confirms;
    monitored = Array.length t.order;
  }

let emit t action peer ~phi_milli =
  if Trace.on () then
    Trace.instant t.node (Event.Detect { action; peer; phi_milli })

let set_peers t ?(wan = []) ranks =
  let now = Clock.now t.clock in
  let ranks = List.sort_uniq compare ranks in
  let keep = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace keep r ()) ranks;
  let stale =
    Hashtbl.fold
      (fun r _ acc -> if Hashtbl.mem keep r then acc else r :: acc)
      t.tbl []
  in
  List.iter (Hashtbl.remove t.tbl) stale;
  List.iter
    (fun r ->
       let floor =
         if List.mem r wan then t.cfg.interval_ns * max 1 t.cfg.wan_floor
         else t.cfg.interval_ns
       in
       match Hashtbl.find_opt t.tbl r with
       | Some ps -> ps.floor <- floor
       | None ->
         Hashtbl.replace t.tbl r
           {
             prank = r;
             last_heard = now;
             last_sent = now;
             floor;
             samples = Array.make (max 1 t.cfg.window) 0;
             nsamples = 0;
             next_slot = 0;
             sum = 0;
             state = Alive;
           })
    ranks;
  t.order <- Array.of_list ranks

let heard (t : t) ~peer =
  if t.run then
    match Hashtbl.find_opt t.tbl peer with
    | None -> ()
    | Some ps ->
      if ps.state <> Confirmed then begin
        let now = Clock.now t.clock in
        let dt = now - ps.last_heard in
        if dt > 0 then begin
          let w = Array.length ps.samples in
          if ps.nsamples = w then ps.sum <- ps.sum - ps.samples.(ps.next_slot)
          else ps.nsamples <- ps.nsamples + 1;
          ps.samples.(ps.next_slot) <- dt;
          ps.sum <- ps.sum + dt;
          ps.next_slot <- (ps.next_slot + 1) mod w
        end;
        ps.last_heard <- now;
        if ps.state = Suspect then begin
          ps.state <- Alive;
          t.refutes <- t.refutes + 1;
          emit t "refute" peer ~phi_milli:0;
          match t.cbs with Some c -> c.on_refute peer | None -> ()
        end
      end

let sent t ~peer =
  if t.run then
    match Hashtbl.find_opt t.tbl peer with
    | None -> ()
    | Some ps -> ps.last_sent <- Clock.now t.clock

let confirm (t : t) ps ~phi_milli ~action =
  ps.state <- Confirmed;
  t.confirms <- t.confirms + 1;
  emit t action ps.prank ~phi_milli;
  match t.cbs with Some c -> c.on_confirm ps.prank | None -> ()

let link_dead t ~peer =
  if t.run then
    match Hashtbl.find_opt t.tbl peer with
    | None -> ()
    | Some ps ->
      if ps.state <> Confirmed then
        confirm t ps ~phi_milli:(-1) ~action:"link-dead"

(* One sweep: accrue suspicion for every monitored peer (ascending rank, so
   virtual-clock runs are deterministic), then heartbeat the ones we have
   not written to for a full interval. Callbacks may evict peers or stop
   the detector mid-sweep, hence the re-lookup and run checks. *)
let rec tick (t : t) =
  t.tick_timer <- None;
  if t.run then begin
    if not (Node.is_up t.node) then t.run <- false
    else begin
      let order = t.order in
      Array.iter
        (fun r ->
           if t.run then
             match Hashtbl.find_opt t.tbl r with
             | None -> ()
             | Some ps when ps.state = Confirmed -> ()
             | Some ps ->
               let now = Clock.now t.clock in
               let p = phi_of t ps ~now in
               let phi_milli = int_of_float (p *. 1000.0) in
               (match ps.state with
                | Alive when p >= t.cfg.suspect_phi ->
                  ps.state <- Suspect;
                  t.suspects <- t.suspects + 1;
                  emit t "suspect" r ~phi_milli;
                  (match t.cbs with
                   | Some c -> c.on_suspect r
                   | None -> ())
                | Suspect when p >= t.cfg.confirm_phi ->
                  confirm t ps ~phi_milli ~action:"confirm"
                | _ -> ());
               if
                 t.run && ps.state <> Confirmed
                 && now - ps.last_sent >= t.cfg.interval_ns
               then begin
                 ps.last_sent <- now;
                 t.hb_sent <- t.hb_sent + 1;
                 match t.cbs with Some c -> c.send_hb r | None -> ()
               end)
        order;
      if t.run then t.tick_timer <- Some (arm_tick t)
    end
  end

and arm_tick t =
  let tm = Clock.arm t.clock t.cfg.interval_ns (fun () -> tick t) in
  fun () -> Clock.cancel tm

let stop t =
  t.run <- false;
  (match t.tick_timer with Some cancel -> cancel () | None -> ());
  t.tick_timer <- None

let start t ~send_hb ?(on_suspect = fun _ -> ()) ?(on_refute = fun _ -> ())
    ~on_confirm () =
  stop t;
  t.cbs <- Some { send_hb; on_suspect; on_refute; on_confirm };
  t.run <- true;
  t.tick_timer <- Some (arm_tick t)

let create ?(config = default_config) ~name node =
  let t =
    {
      dname = name;
      node;
      clock = Node.clock node;
      cfg = config;
      tbl = Hashtbl.create 16;
      order = [||];
      run = false;
      cbs = None;
      tick_timer = None;
      hb_sent = 0;
      suspects = 0;
      refutes = 0;
      confirms = 0;
    }
  in
  let scope = Metrics.Node (Node.name node) in
  Metrics.gauge scope ("detect." ^ t.dname ^ ".max_phi") (fun () -> max_phi t);
  Metrics.gauge scope
    ("detect." ^ t.dname ^ ".monitored")
    (fun () -> float_of_int (Array.length t.order));
  Metrics.gauge scope
    ("detect." ^ t.dname ^ ".confirms")
    (fun () -> float_of_int t.confirms);
  t

module Sim = Engine.Sim
module Clock = Engine.Clock
module Proc = Engine.Proc
module Stats = Engine.Stats
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics

let log = Logs.Src.create "netaccess.core"

module Log = (val Logs.src_log log : Logs.LOG)

type kind = Madio_work | Sysio_work

type quanta = { madio_quantum : int; sysio_quantum : int }

let default_quanta = { madio_quantum = 4; sysio_quantum = 4 }

type item = { work : unit -> unit; posted_at : int }

(* An explicit readiness source (one per watched connection): events
   accumulate at the source's owner, and the source enqueues itself on the
   ready list at most once ([queued]) until drained. Idle sources are
   simply absent from the list, so a dispatch round costs nothing per idle
   connection — the O(watched)-scan replacement. The drain is a function of
   the owner shared by every source of its kind, so a source allocates no
   closure. *)
type source =
  | Source : {
      mutable s_state : int; (* [queued] and [live] bits *)
      s_owner : 'o;
      s_drain : 'o -> unit; (* deliver every pending event; non-blocking *)
    }
      -> source

let queued = 1 (* on the ready list right now *)
let live = 2 (* cleared once unregistered *)

type queue_state = {
  kname : string;
  items : item Queue.t;
  mutable qhigh : int; (* shed droppable work at/above this depth *)
  mutable peak : int;
  count : Stats.Counter.t; (* dispatched *)
  wait : Stats.Summary.t; (* queueing time per item, ns *)
  shed_c : Stats.Counter.t;
}

type t = {
  dnode : Simnet.Node.t;
  clk : Clock.t;
  mutable quanta : quanta;
  madio : queue_state;
  sysio : queue_state;
  mutable waker : (unit -> unit) option; (* resumes the idle dispatcher *)
  (* Readiness sources of watched connections; only sources with pending
     events are on [ready]. *)
  ready : source Queue.t;
  mutable nsources : int;
  ready_drains : Stats.Counter.t; (* sources drained *)
  ready_polls : Stats.Counter.t; (* rounds that paid the ready-list poll *)
}

let dispatchers : (int, t) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let () =
  Engine.Lifecycle.on_reset (fun () ->
      Mutex.protect registry_lock (fun () -> Hashtbl.reset dispatchers))

let node t = t.dnode

let set_quanta t q =
  if q.madio_quantum < 1 || q.sysio_quantum < 1 then
    invalid_arg "Na_core.set_quanta: quanta must be >= 1";
  t.quanta <- q

let quanta t = t.quanta

let qstate t = function Madio_work -> t.madio | Sysio_work -> t.sysio

let set_admission t kind ~high =
  if high < 1 then invalid_arg "Na_core.set_admission: need high >= 1";
  (qstate t kind).qhigh <- high

let flow t action q =
  if Trace.on () then
    Trace.instant t.dnode
      (Padico_obs.Event.Flow
         { action; place = "na." ^ q.kname; bytes = Queue.length q.items })

let run_item t q =
  match Queue.take_opt q.items with
  | None -> false
  | Some { work; posted_at } ->
    Stats.Counter.incr q.count;
    let queued_ns = Clock.now t.clk - posted_at in
    Stats.Summary.add q.wait (float_of_int queued_ns);
    (* The span covers the queueing interval: posted -> dispatched. *)
    if Trace.on () then
      Trace.complete t.dnode ~since:posted_at
        (Padico_obs.Event.Dispatch { kind = q.kname; queued_ns });
    (try work ()
     with e ->
       Log.err (fun m ->
           m "%s: dispatched handler raised %s"
             (Simnet.Node.name t.dnode)
             (Printexc.to_string e)));
    true

(* Drain the ready list: one charged poll pass per round with a live
   source pending (the epoll_wait), then up to the SysIO quantum of
   sources. The poll is paid on reaching the first live source, so dead
   entries ahead of it (or alone on the list) are dropped uncharged; the
   head is re-examined after the charge, since it may die meanwhile. A
   source is popped and its queued flag cleared {e before} its drain runs,
   so events arriving mid-drain re-enqueue it — no lost wakeups; the flag
   guarantees at most one list entry per source — no duplicate dispatch.
   Idle sources are not on the list and cost nothing here. *)
let rec drain_ready t ~charged k =
  if k < t.quanta.sysio_quantum then
    match Queue.peek_opt t.ready with
    | None -> ()
    | Some (Source s) when s.s_state land live = 0 ->
      ignore (Queue.pop t.ready);
      s.s_state <- s.s_state land lnot queued;
      drain_ready t ~charged k
    | Some _ when not charged ->
      Stats.Counter.incr t.ready_polls;
      if Trace.on () then
        Trace.instant t.dnode (Padico_obs.Event.Poll { kind = "sysio" });
      Simnet.Node.cpu t.dnode Calib.sysio_poll_ns;
      drain_ready t ~charged:true k
    | Some (Source s) ->
      ignore (Queue.pop t.ready);
      s.s_state <- s.s_state land lnot queued;
      Stats.Counter.incr t.ready_drains;
      (try s.s_drain s.s_owner
       with e ->
         Log.err (fun m ->
             m "%s: ready-source drain raised %s"
               (Simnet.Node.name t.dnode)
               (Printexc.to_string e)));
      drain_ready t ~charged (k + 1)

(* The unique receipt loop: alternate between the two subsystems by their
   quanta, then sleep until new work is posted. *)
let dispatcher_loop t () =
  let rec wait_for_work () =
    if
      Queue.is_empty t.madio.items
      && Queue.is_empty t.sysio.items
      && Queue.is_empty t.ready
    then begin
      Proc.suspend (fun resume -> t.waker <- Some resume);
      wait_for_work ()
    end
  in
  while true do
    wait_for_work ();
    (* One interleaving round. Scanning the socket subsystem costs a poll
       pass (select()-like); MadIO completion polling is cheap and charged
       inside the MadIO costs, keeping the MadIO-over-Madeleine overhead at
       its measured < 0.1 us. *)
    let q = t.quanta in
    let rec drain qs n = if n > 0 && run_item t qs then drain qs (n - 1) in
    if not (Queue.is_empty t.madio.items) then drain t.madio q.madio_quantum;
    if not (Queue.is_empty t.sysio.items) then begin
      if Trace.on () then
        Trace.instant t.dnode (Padico_obs.Event.Poll { kind = "sysio" });
      Simnet.Node.cpu t.dnode Calib.sysio_poll_ns;
      drain t.sysio q.sysio_quantum
    end;
    drain_ready t ~charged:false 0;
    (* Yield so co-located processes make progress between rounds. *)
    Proc.yield_on t.clk
  done

let make_queue node kname =
  let scope = Metrics.Node (Simnet.Node.name node) in
  let q =
    { kname; items = Queue.create (); qhigh = max_int; peak = 0;
      count = Metrics.fresh_counter scope ("na." ^ kname ^ ".dispatched");
      wait = Metrics.fresh_summary scope ("na." ^ kname ^ ".wait_ns");
      shed_c = Metrics.fresh_counter scope ("na." ^ kname ^ ".shed") }
  in
  Metrics.gauge scope ("na." ^ kname ^ ".depth") (fun () ->
      float_of_int (Queue.length q.items));
  Metrics.gauge scope ("na." ^ kname ^ ".depth_peak") (fun () ->
      float_of_int q.peak);
  q

let get dnode =
  let id = Simnet.Node.uid dnode in
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt dispatchers id with
      | Some t -> t
      | None ->
        let scope = Metrics.Node (Simnet.Node.name dnode) in
        let t =
          { dnode; clk = Simnet.Node.clock dnode; quanta = default_quanta;
            madio = make_queue dnode "madio";
            sysio = make_queue dnode "sysio";
            waker = None;
            ready = Queue.create (); nsources = 0;
            ready_drains = Metrics.fresh_counter scope "na.ready.drains";
            ready_polls = Metrics.fresh_counter scope "na.ready.polls" }
        in
        Metrics.gauge scope "na.ready.depth" (fun () ->
            float_of_int (Queue.length t.ready));
        Metrics.gauge scope "na.ready.sources" (fun () ->
            float_of_int t.nsources);
        Hashtbl.replace dispatchers id t;
        ignore (Simnet.Node.spawn dnode ~name:"netaccess" (dispatcher_loop t));
        t)

let wake t =
  match t.waker with
  | Some resume ->
    t.waker <- None;
    resume ()
  | None -> ()

let admit t q item =
  Queue.push item q.items;
  if Queue.length q.items > q.peak then q.peak <- Queue.length q.items;
  wake t

let post t kind work =
  admit t (qstate t kind) { work; posted_at = Clock.now t.clk }

let post_droppable t kind work =
  let q = qstate t kind in
  if Queue.length q.items >= q.qhigh then begin
    Stats.Counter.incr q.shed_c;
    flow t "shed" q;
    false
  end
  else begin
    admit t q { work; posted_at = Clock.now t.clk };
    true
  end

let dispatched t kind = Stats.Counter.value (qstate t kind).count

let queue_depth t kind = Queue.length (qstate t kind).items

let queue_peak t kind = (qstate t kind).peak

let shed_count t kind = Stats.Counter.value (qstate t kind).shed_c

let mean_wait_ns t kind =
  let q = qstate t kind in
  if Stats.Summary.n q.wait = 0 then 0.0 else Stats.Summary.mean q.wait

let polls_busy _ = 0

let polls_idle _ = 0

(* -- readiness sources -------------------------------------------------- *)

let register_source t owner ~drain =
  t.nsources <- t.nsources + 1;
  Source { s_state = live; s_owner = owner; s_drain = drain }

let no_source = Source { s_state = 0; s_owner = (); s_drain = ignore }

let unregister_source t (Source s) =
  if s.s_state land live <> 0 then begin
    s.s_state <- s.s_state land lnot live;
    t.nsources <- t.nsources - 1
    (* A queued entry stays on the list and is skipped (uncharged) at the
       next drain — O(1) unregister, like an epoll interest removal. *)
  end

let mark_ready t (Source s as src) =
  if s.s_state = live then begin
    s.s_state <- live lor queued;
    Queue.push src t.ready;
    wake t
  end

let source_live (Source s) = s.s_state land live <> 0

let ready_depth t = Queue.length t.ready

let source_count t = t.nsources

let ready_drains t = Stats.Counter.value t.ready_drains

let ready_polls t = Stats.Counter.value t.ready_polls

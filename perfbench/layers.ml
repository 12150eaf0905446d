(* Per-layer counters, read from outside through each layer's public
   accessors. A snapshot is taken at the start of the timed phase, at the
   end of the virt window (from inside the engine event that completes
   it) and at the end of the phase; per-layer metrics are differences
   between two snapshots. Counts use the window (deterministic for a
   seed); host-time and allocation figures use the whole phase. *)

module Bb = Engine.Bytebuf
module Seg = Simnet.Segment
module Na = Netaccess.Na_core
module Sysio = Netaccess.Sysio
module Madio = Netaccess.Madio

(* What a workload exposes for measurement. [san] and [ip] are the
   segments the workload's traffic uses. *)
type ctx = {
  grid : Padico.t;
  nodes : Simnet.Node.t list;
  san : Seg.t list;
  ip : Seg.t list;
  group : Collectives.Group.t option;
}

type snap = {
  copies : int;
  pool_hits : int;
  pool_misses : int;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  san_frames : int;
  ip_frames : int;
  ip_bytes : int;
  all_bytes : int;
  frames_lost : int;
  ip_lost : int;
  gm_msgs : int;
  mad_msgs : int;
  madio_msgs : int;
  credit_stalls : int;
  packets_saved : int;
  na_madio : int;
  na_sysio : int;
  wait_madio : float;  (* total queued ns = mean x dispatched *)
  wait_sysio : float;
  shed : int;
  polls_busy : int;
  polls_idle : int;
  ready_drains : int;
  ready_polls : int;
  sysio_events : int;
  reaped : int;
  coll_msgs : int;
  coll_bytes : int;
  loop_iters : int;
  fd_events : int;
  timers : int;
  virt : int;
}

let classify grid =
  List.partition
    (fun seg -> (Seg.model seg).Simnet.Linkmodel.class_ = Simnet.Linkmodel.San)
    (List.filter
       (fun seg -> (Seg.model seg).Simnet.Linkmodel.class_ <> Simnet.Linkmodel.Loop)
       (Simnet.Net.segments (Padico.net grid)))

(* The measurement context of a grid: its SAN and IP segments. *)
let ctx ?group grid nodes =
  let san, ip = classify grid in
  { grid; nodes; san; ip; group }

let sum f l = List.fold_left (fun a x -> a + f x) 0 l
let fsum f l = List.fold_left (fun a x -> a +. f x) 0.0 l

let members seg = Seg.nodes seg

let is_sim c = Padico.backend c.grid = Padico.Sim

let snap c =
  let gc = Gc.quick_stat () in
  let segs = c.san @ c.ip in
  let nas = List.map Na.get c.nodes in
  let sios = List.map Sysio.get c.nodes in
  let san_nodes seg = List.map (fun n -> (seg, n)) (members seg) in
  let san_pairs = if is_sim c then List.concat_map san_nodes c.san else [] in
  let madios = List.map (fun (seg, n) -> Padico.madio c.grid n seg) san_pairs in
  let wait k t = Na.mean_wait_ns t k *. float_of_int (Na.dispatched t k) in
  let loop = Padico.loop c.grid in
  { copies = Bb.copies_performed ();
    pool_hits = Bb.Pool.pool_hits () + Bb.Pool.sized_hits ();
    pool_misses = Bb.Pool.pool_misses () + Bb.Pool.sized_misses ();
    minor_words = gc.Gc.minor_words;
    promoted_words = gc.Gc.promoted_words;
    major_collections = gc.Gc.major_collections;
    san_frames = sum Seg.frames_sent c.san;
    ip_frames = sum Seg.frames_sent c.ip;
    ip_bytes = sum Seg.bytes_sent c.ip;
    all_bytes = sum Seg.bytes_sent segs;
    frames_lost = sum Seg.frames_lost segs;
    ip_lost = sum Seg.frames_lost c.ip;
    gm_msgs =
      sum (fun (seg, n) -> Drivers.Gm.messages_sent (Drivers.Gm.attach seg n))
        san_pairs;
    mad_msgs = sum (fun m -> Madeleine.Mad.messages_sent (Madio.mad m)) madios;
    madio_msgs = sum Madio.messages_sent madios;
    credit_stalls = sum Madio.credit_stalls madios;
    packets_saved = sum Madio.packets_saved madios;
    na_madio = sum (fun t -> Na.dispatched t Na.Madio_work) nas;
    na_sysio = sum (fun t -> Na.dispatched t Na.Sysio_work) nas;
    wait_madio = fsum (wait Na.Madio_work) nas;
    wait_sysio = fsum (wait Na.Sysio_work) nas;
    shed = sum (fun t -> Na.shed_count t Na.Madio_work + Na.shed_count t Na.Sysio_work) nas;
    polls_busy = sum Na.polls_busy nas;
    polls_idle = sum Na.polls_idle nas;
    ready_drains = sum Na.ready_drains nas;
    ready_polls = sum Na.ready_polls nas;
    sysio_events = sum Sysio.events_dispatched sios;
    reaped = sum Sysio.conns_reaped sios;
    coll_msgs = (match c.group with Some g -> Collectives.Group.wan_messages g | None -> 0);
    coll_bytes = (match c.group with Some g -> Collectives.Group.wan_bytes g | None -> 0);
    loop_iters = (match loop with Some l -> Hostio.Loop.iterations l | None -> 0);
    fd_events = (match loop with Some l -> Hostio.Loop.fd_events l | None -> 0);
    timers = (match loop with Some l -> Hostio.Loop.timers_fired l | None -> 0);
    virt = Padico.now c.grid }

(* Deterministic counters only: the part of a snapshot difference that
   goes into the outcome digest. *)
let digest_fields a b =
  List.map string_of_int
    [ b.san_frames - a.san_frames; b.ip_frames - a.ip_frames;
      b.ip_bytes - a.ip_bytes; b.frames_lost - a.frames_lost;
      b.gm_msgs - a.gm_msgs; b.mad_msgs - a.mad_msgs;
      b.madio_msgs - a.madio_msgs; b.na_madio - a.na_madio;
      b.na_sysio - a.na_sysio; b.sysio_events - a.sysio_events;
      b.coll_msgs - a.coll_msgs; b.coll_bytes - a.coll_bytes;
      b.copies - a.copies ]

(* Levels read at one instant (not differences). *)
type level = {
  queue_peak_madio : int;
  queue_peak_sysio : int;
  conns : int;
  sysio_resident : int;
  tcp_conns : int;
  tcp_resident : int;
}

let level c =
  let nas = List.map Na.get c.nodes in
  let sios = List.map Sysio.get c.nodes in
  let tcp_stacks =
    if not (is_sim c) then []
    else
      List.concat_map
        (fun seg ->
           List.filter_map
             (fun n -> Sysio.tcp_stack (Sysio.stack_on (Sysio.get n) seg))
             (members seg))
        c.ip
  in
  let peak k = List.fold_left (fun m t -> max m (Na.queue_peak t k)) 0 nas in
  { queue_peak_madio = peak Na.Madio_work;
    queue_peak_sysio = peak Na.Sysio_work;
    conns = sum Sysio.conn_count sios;
    sysio_resident = sum Sysio.bytes_resident sios;
    tcp_conns = sum Drivers.Tcp.conn_count tcp_stacks;
    tcp_resident = sum Drivers.Tcp.resident_bytes tcp_stacks }

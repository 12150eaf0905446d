(* Shared machinery of the repository benchmark: clocks, sample sets,
   histograms, per-op recording, benchmark-side spans, the sliced timed
   phase and the input generators.

   Time has two meanings here. "Virt" is the engine clock the program runs
   on ([Padico.now]): simulated nanoseconds on the Sim backend, the
   reactor's monotonic clock on the Host backend. "Host" is real time of
   this process: for the end-to-end figures its CPU time scaled to a
   nominal machine speed ([cpu_ns], [Speed]), for spans and deadlines the
   monotonic clock (bechamel's [Monotonic_clock]). *)

let host_ns () = Int64.to_int (Monotonic_clock.now ())

(* CPU time of this process (user + system) in ns, to the microsecond. *)
let process_cpu_ns () =
  let t = Unix.times () in
  int_of_float (Float.round ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9))

(* ---------- the machine's speed ---------- *)

(* The end-to-end host figures (throughput, per-op host latency, set-up
   time) are read on the process's CPU clock, not on [host_ns]: on a shared
   machine the process is often not running at all, preempted by other
   processes or its virtual CPU taken by the hypervisor (counted as steal
   time, not as this process's CPU time), and those pauses say nothing
   about the program.

   The CPU itself also runs slower or faster by tens of percent over
   seconds, with other tenants' load on the same cores. So the benchmark
   measures that speed as it goes: a fixed reference computation, the
   probe (hashing, sorting and block copies in the core's own caches), runs
   between slices of the timed phase and before each set-up, and host
   figures are scaled to what they would be at the probe's nominal speed.
   A change of the program moves the scaled figures as it moves the raw
   ones; a machine that runs everything 20 % slower for a while moves
   neither. *)
module Speed = struct
  (* CPU time the probes took, left out of [cpu_ns]. *)
  let spent = ref 0

  (* The probe's CPU time on the machine the benchmark was calibrated on
     (2-core x86-64 VM, OCaml 5.1.1); only the scale of the figures
     depends on it. *)
  let nominal_ns = 600_000

  (* The probe allocates nothing: an allocation could start a slice of
     the collector's work on the program's heap, and the probe would time
     the heap's state instead of the machine. Its data (about 200 KB) fits
     a core's own caches. *)
  let keys = Array.make 4096 0
  let sorted = Array.make 2048 0
  let src = Bytes.make 65536 'p'
  let dst = Bytes.create 65536

  (* Hashing (2048 inserts into an open-addressed table), a sort and block
     copies. *)
  let work () =
    Array.fill keys 0 4096 (-1);
    for i = 0 to 2047 do
      let k = (i * 7919) land 65535 in
      let h = ref ((k * 40503) land 4095) in
      while keys.(!h) >= 0 && keys.(!h) <> k do
        h := (!h + 1) land 4095
      done;
      keys.(!h) <- k
    done;
    for i = 0 to 2047 do
      sorted.(i) <- (i * 40503) land 65535
    done;
    Array.sort Int.compare sorted;
    for _ = 1 to 4 do
      Bytes.blit src 0 dst 0 65536
    done;
    ignore (Sys.opaque_identity (keys, sorted, dst))

  (* Run the probe once; its CPU time in ns. The first pass brings its
     data back into the caches, which the program has filled since the
     last probe; only the second is timed. Timing a cold pass, or a pass
     through more memory than a core's caches, would time the program's
     footprint rather than the machine: a program that grew its working
     set would slow the probe and so scale its own figures up. *)
  let probe () =
    let c0 = process_cpu_ns () in
    work ();
    let c1 = process_cpu_ns () in
    work ();
    let c2 = process_cpu_ns () in
    spent := !spent + (c2 - c0);
    max 1 (c2 - c1)

  (* How much slower than nominal the machine runs now: the median of [n]
     probes over the nominal time. A duration measured now is divided by
     it, a rate multiplied. *)
  let slowness ?(n = 5) () =
    let l = List.sort compare (List.init n (fun _ -> probe ())) in
    float_of_int (List.nth l (n / 2)) /. float_of_int nominal_ns
end

(* The clock of the end-to-end host figures: process CPU time without the
   probes'. *)
let cpu_ns () = process_cpu_ns () - !Speed.spent

(* ---------- sample sets ---------- *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest-rank percentile of the recorded values ([p] in 0..100);
     0 when empty. *)
  let percentile t p =
    if t.n = 0 then 0
    else begin
      let s = Array.sub t.a 0 t.n in
      Array.sort compare s;
      let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) in
      s.(max 0 (min (t.n - 1) (k - 1)))
    end

  let us_at t p = float_of_int (percentile t p) /. 1e3

  (* As a growable int array: add [d] at index [i]. *)
  let bump t i d =
    while t.n <= i do
      add t 0
    done;
    t.a.(i) <- t.a.(i) + d
end

(* Log-linear histogram of non-negative ints: 64 sub-buckets per power of
   two, so a percentile is exact to 1.6 %, in constant memory whatever the
   number of samples. Host-time samples go here, so that a faster program
   does not grow the benchmark's own memory. *)
module Hist = struct
  type t = { counts : int array; mutable n : int }

  let size = 64 * 58

  let create () = { counts = Array.make size 0; n = 0 }

  let rec bits v = if v = 0 then 0 else 1 + bits (v lsr 1)

  let index v =
    let v = max 0 v in
    if v < 128 then v
    else
      let e = bits v - 7 in
      (64 * (e + 1)) + ((v lsr e) - 64)

  (* Lower bound and width of a bucket. *)
  let lower i = if i < 128 then i else ((i mod 64) + 64) lsl ((i / 64) - 1)
  let width i = if i < 128 then 1 else 1 lsl ((i / 64) - 1)

  let add t v =
    let i = index v in
    t.counts.(i) <- t.counts.(i) + 1;
    t.n <- t.n + 1

  let count t = t.n

  (* Nearest-rank percentile, [p] in 0..100, interpolated linearly inside
     its bucket; 0 when empty. *)
  let us_at t p =
    if t.n = 0 then 0.0
    else begin
      let k = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n))) in
      let rec go i acc =
        let c = t.counts.(i) in
        if acc + c >= k || i = size - 1 then
          float_of_int (lower i)
          +. (float_of_int (width i) *. (float_of_int (k - acc) -. 0.5)
              /. float_of_int (max 1 c))
        else go (i + 1) (acc + c)
      in
      go 0 0 /. 1e3
    end
end

(* ---------- metrics ---------- *)

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_samples : int;  (* samples behind a percentile or ratio, 0 = n/a *)
}

let metric ?(samples = 0) name unit_ value =
  { m_name = name; m_value = value; m_unit = unit_; m_samples = samples }

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let mb_s bytes ns = if ns <= 0 then 0.0 else float_of_int bytes /. 1e6 /. (float_of_int ns /. 1e9)

(* ---------- per-op recording ---------- *)

(* One workload's record of its timed phase. The virt window is a fixed,
   seed-determined set of operations (the first ones the workload starts);
   virt metrics and the outcome digest come from it alone, so they repeat
   exactly for a seed whatever the host speed. Host metrics cover every
   operation of the timed phase. *)
type recorder = {
  virt_lat : Samples.t;  (* window ops, virt ns *)
  mutable wall_lat : Hist.t array;  (* all timed ops, CPU ns, per CPU-second *)
  ops_bucket : Samples.t;  (* ops completed in each CPU-second of the phase *)
  probe_bucket : Samples.t;  (* the CPU-second of each probe of the phase... *)
  probe_ns : Samples.t;  (* ...and its duration *)
  h_start : int;  (* CPU time the phase started *)
  mutable ops : int;  (* completed (ok or failed) in the timed phase *)
  mutable failed : int;
  mutable window_done : int;
  mutable window_bytes : int;  (* payload bytes of the window's ops *)
  mutable checksum : int;  (* payload checksum over the window *)
  mutable window_end : int;  (* virt time the window's last op finished *)
}

let recorder () =
  { virt_lat = Samples.create (); wall_lat = [||]; ops_bucket = Samples.create ();
    probe_bucket = Samples.create (); probe_ns = Samples.create ();
    h_start = cpu_ns (); ops = 0;
    failed = 0; window_done = 0; window_bytes = 0; checksum = 0;
    window_end = -1 }

let mix h v = (h * 1_000_003) lxor (v land 0x3fff_ffff)

let bucket_ns = 1_000_000_000

(* Record one finished operation, started at CPU time [w0]. [lat] says
   whether it contributes a latency sample (bulk transfers and idle
   sessions do not). *)
let complete r ~in_window ~lat ~ok ~virt_ns ~w0 ~bytes ~sum =
  let w1 = cpu_ns () in
  let b = (w1 - r.h_start) / bucket_ns in
  r.ops <- r.ops + 1;
  Samples.bump r.ops_bucket b 1;
  if not ok then r.failed <- r.failed + 1;
  if lat then begin
    if b >= Array.length r.wall_lat then
      r.wall_lat <-
        Array.init (b + 1) (fun i ->
            if i < Array.length r.wall_lat then r.wall_lat.(i) else Hist.create ());
    Hist.add r.wall_lat.(b) (w1 - w0)
  end;
  if in_window then begin
    if lat then Samples.add r.virt_lat virt_ns;
    r.window_done <- r.window_done + 1;
    r.window_bytes <- r.window_bytes + bytes;
    r.checksum <- mix r.checksum sum
  end

(* Host figures of a phase that ended at CPU time [cpu_end]: the median
   over its whole CPU-seconds, so that a slow second of a shared machine
   moves them less. A [whole] phase, one that ran a finite population to
   its end, uses its totals instead: its load rises and falls as the
   population comes and goes, so its seconds are not alike. So do phases
   shorter than three seconds. *)
let full_buckets r ~cpu_end =
  min ((cpu_end - r.h_start) / bucket_ns) (Samples.count r.ops_bucket)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* Probe the machine's speed during the phase. *)
let probe r =
  let d = Speed.probe () in
  Samples.add r.probe_bucket ((cpu_ns () - r.h_start) / bucket_ns);
  Samples.add r.probe_ns d

(* The slowness of CPU-second [bucket] from its own probes, or of the
   whole phase (without [bucket], or if that second had none). *)
let slowness ?(bucket = -1) r =
  let pick f =
    List.filter_map
      (fun i ->
         if f r.probe_bucket.Samples.a.(i) then Some (float_of_int r.probe_ns.Samples.a.(i))
         else None)
      (List.init (Samples.count r.probe_ns) Fun.id)
  in
  let own = pick (( = ) bucket) in
  let ds = if own <> [] then own else pick (fun _ -> true) in
  if ds = [] then 1.0 else median ds /. float_of_int Speed.nominal_ns

let host_rate r ~cpu_end ~whole =
  let nb = full_buckets r ~cpu_end in
  if whole || nb < 3 then ratio r.ops (cpu_end - r.h_start) *. 1e9 *. slowness r
  else
    median
      (List.init nb (fun b -> float_of_int r.ops_bucket.Samples.a.(b) *. slowness ~bucket:b r))

let wall_count r = Array.fold_left (fun a h -> a + Hist.count h) 0 r.wall_lat

let wall_us r ~cpu_end ~whole p =
  let nb = min (full_buckets r ~cpu_end) (Array.length r.wall_lat) in
  let usable =
    List.filter (fun b -> Hist.count r.wall_lat.(b) >= 100) (List.init nb Fun.id)
  in
  if (not whole) && List.length usable >= 3 then
    median (List.map (fun b -> Hist.us_at r.wall_lat.(b) p /. slowness ~bucket:b r) usable)
  else begin
    let all = Hist.create () in
    Array.iter
      (fun h ->
         Array.iteri (fun i c -> all.Hist.counts.(i) <- all.Hist.counts.(i) + c) h.Hist.counts;
         all.Hist.n <- all.Hist.n + h.Hist.n)
      r.wall_lat;
    Hist.us_at all p /. slowness r
  end

(* ---------- benchmark-side spans (traced run) ---------- *)

module Span = struct
  (* A span brackets one call into a layer: host and virt start/end, its
     operation id and its parent span. Aggregates are kept per name for
     every span; the first [keep] spans are also kept whole for the Chrome
     trace file. A span whose call advanced the virt clock counts as
     waiting (the call suspended on the program), otherwise its host
     duration is self time. *)
  type t = {
    id : int;
    name : string;
    op : int;
    parent : int;
    h0 : int;
    v0 : int;
  }

  type agg = { self_host : Samples.t; wait_virt : Samples.t }

  let enabled = ref false
  let keep = 20_000
  let next_id = ref 0
  let kept : (t * int * int) list ref = ref []  (* span, h1, v1 *)
  let nkept = ref 0
  let total = ref 0
  let aggs : (string, agg) Hashtbl.t = Hashtbl.create 32

  let none = { id = -1; name = ""; op = -1; parent = -1; h0 = 0; v0 = 0 }

  let reset () =
    next_id := 0;
    kept := [];
    nkept := 0;
    total := 0;
    Hashtbl.reset aggs

  let start ?(parent = -1) ~op name now =
    if not !enabled then none
    else begin
      incr next_id;
      { id = !next_id; name; op; parent; h0 = host_ns (); v0 = now }
    end

  let agg name =
    match Hashtbl.find_opt aggs name with
    | Some a -> a
    | None ->
      let a =
        { self_host = Samples.create (); wait_virt = Samples.create () }
      in
      Hashtbl.replace aggs name a;
      a

  let finish s now =
    if s.id >= 0 then begin
      let h1 = host_ns () in
      let a = agg s.name in
      incr total;
      if now > s.v0 then Samples.add a.wait_virt (now - s.v0)
      else Samples.add a.self_host (h1 - s.h0);
      if !nkept < keep then begin
        incr nkept;
        kept := (s, h1, now) :: !kept
      end
    end

  let id s = s.id

  let wrap ?parent ~op name now f =
    let s = start ?parent ~op name (now ()) in
    let r = f () in
    finish s (now ());
    r

  let find name = Hashtbl.find_opt aggs name

  (* Chrome Trace Event JSON: each kept span twice, once on the virt
     timeline (pid 1) and once on the host timeline (pid 2). *)
  let write_chrome file =
    let module J = Padico_obs.Json in
    let spans = List.rev !kept in
    let h_base =
      List.fold_left (fun m (s, _, _) -> min m s.h0) max_int spans
    in
    let ev pid ts dur (s, h1, v1) =
      J.Obj
        [ ("name", J.Str s.name); ("cat", J.Str "perfbench");
          ("ph", J.Str "X"); ("pid", J.Int pid); ("tid", J.Int (s.op land 0xffff));
          ("ts", J.Float ts); ("dur", J.Float dur);
          ("args",
           J.Obj
             [ ("id", J.Int s.id); ("op", J.Int s.op);
               ("parent", J.Int s.parent);
               ("virt_ts_us", J.Float (float_of_int s.v0 /. 1e3));
               ("virt_dur_us", J.Float (float_of_int (v1 - s.v0) /. 1e3));
               ("host_dur_us", J.Float (float_of_int (h1 - s.h0) /. 1e3));
               ("waiting", J.Bool (v1 > s.v0)) ]) ]
    in
    let meta pid label =
      J.Obj
        [ ("name", J.Str "process_name"); ("ph", J.Str "M"); ("pid", J.Int pid);
          ("args", J.Obj [ ("name", J.Str label) ]) ]
    in
    let events =
      meta 1 "virt time" :: meta 2 "host time"
      :: List.concat_map
        (fun ((s, h1, v1) as k) ->
           [ ev 1 (float_of_int s.v0 /. 1e3) (float_of_int (v1 - s.v0) /. 1e3) k;
             ev 2 (float_of_int (s.h0 - h_base) /. 1e3)
               (float_of_int (h1 - s.h0) /. 1e3) k ])
        spans
    in
    let oc = open_out file in
    output_string oc
      (J.to_string
         (J.Obj
            [ ("traceEvents", J.List events);
              ("displayTimeUnit", J.Str "ns");
              ("otherData",
               J.Obj [ ("spans_total", J.Int !total); ("spans_kept", J.Int !nkept) ]) ]));
    close_out oc
end

(* The per-layer metrics of one stack: op latency over the window, and the
   p50 of its sending calls split into host self time and virt waiting. *)
let stack_metrics stack lat =
  let send f =
    match Span.find (stack ^ ".send") with Some a -> f a | None -> Samples.create ()
  in
  let self = send (fun a -> a.Span.self_host) and wait = send (fun a -> a.Span.wait_virt) in
  let n = Samples.count lat in
  [ metric ~samples:n (stack ^ ".virt_latency_us.p50") "us" (Samples.us_at lat 50.0);
    metric ~samples:n (stack ^ ".virt_latency_us.p99") "us" (Samples.us_at lat 99.0);
    metric ~samples:(Samples.count self) (stack ^ ".send_host_us.p50") "us"
      (Samples.us_at self 50.0);
    metric ~samples:(Samples.count wait) (stack ^ ".send_wait_virt_us.p50") "us"
      (Samples.us_at wait 50.0) ]

(* ---------- the timed phase ---------- *)

type phase = {
  host_ns_total : int;  (* host time of the whole timed phase *)
  cpu_end : int;  (* CPU time the phase ended *)
  run_host_ns : int;  (* host time spent inside [Padico.run] *)
  virt_ns : int;  (* engine-clock time the phase covered *)
  quiesced : bool;  (* the program ran out of work before the end *)
  ended : bool;  (* the workload finished all its work (a finite population) *)
}

(* No phase runs past this host time, so that the process ends within its
   time budget even when a window never completes (the run then reports
   the incomplete window as a problem). *)
let process_deadline = host_ns () + 150_000_000_000

(* CPU time between two probes of a phase; a probe takes about 2.5 % of it. *)
let probe_every_ns = 50_000_000

(* Drive the grid in engine-clock slices until the host deadline has passed
   and the window is complete, or [finished] holds, or the program
   quiesces; probe the machine's speed between slices. *)
let run_phase ~grid ~rec_ ~slice_ns ~seconds ~window_complete ~finished
    ?(on_slice = fun () -> ()) () =
  let h0 = host_ns () in
  let v0 = Padico.now grid in
  let deadline = h0 + int_of_float (seconds *. 1e9) in
  let limit = process_deadline in
  let in_run = ref 0 in
  let next_probe = ref (cpu_ns ()) in
  let rec go () =
    let target = Padico.now grid + slice_ns in
    let a = host_ns () in
    Padico.run grid ~until:target;
    let b = host_ns () in
    in_run := !in_run + (b - a);
    on_slice ();
    if cpu_ns () >= !next_probe then begin
      probe rec_;
      next_probe := cpu_ns () + probe_every_ns
    end;
    let quiet = Padico.now grid < target in
    if quiet || finished () || b >= limit || (b >= deadline && window_complete ()) then
      quiet
    else go ()
  in
  let quiesced = go () in
  { host_ns_total = host_ns () - h0; cpu_end = cpu_ns (); run_host_ns = !in_run;
    virt_ns = Padico.now grid - v0; quiesced; ended = finished () }

(* Set-up helper: run the grid in [slice_ns] slices until [ready] holds,
   the engine clock passes [limit_ns] more, or the program goes quiet. *)
let run_until grid ~slice_ns ~limit_ns ready =
  let stop = Padico.now grid + limit_ns in
  let rec go () =
    if ready () then true
    else begin
      let target = Padico.now grid + slice_ns in
      Padico.run grid ~until:target;
      if Padico.now grid < target || Padico.now grid >= stop then ready () else go ()
    end
  in
  go ()

(* ---------- process-level figures ---------- *)

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec find () =
      match input_line ic with
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
      | _ -> find ()
      | exception End_of_file -> 0.0
    in
    let v = find () in
    close_in ic;
    v
  with Sys_error _ -> 0.0

(* A fresh heap before each set-up, so set-up time is not charged for the
   previous grid's garbage. *)
let fresh () =
  Padico.reset ();
  Gc.compact ()

let digest_of parts = Digest.to_hex (Digest.string (String.concat "," parts))

(* Processes the benchmark starts on the engine (engine.procs_spawned). *)
let spawned = ref 0

let spawn grid node name f =
  incr spawned;
  ignore (Padico.spawn grid node ~name f)

(* Deterministic input generation: every generator is a keyed stream of
   the seed, so one loop's inputs do not depend on how loops interleave. *)
let rng ~seed key = Engine.Rng.stream (Engine.Rng.create seed) key

(* Sizes spread evenly over orders of magnitude in [lo, hi]. *)
let log_uniform rng ~lo ~hi =
  let l = log (float_of_int lo) and h = log (float_of_int (hi + 1)) in
  max lo (min hi (int_of_float (exp (l +. Engine.Rng.float rng (h -. l)))))

let pattern n ~seed =
  let b = Engine.Bytebuf.create n in
  Engine.Bytebuf.fill_pattern b ~seed;
  b

(* Workload scale: [Full] is the benchmark, [Small] the same shape shrunk
   for the benchmark's own tests. *)
type scale = Full | Small

type cfg = { seed : int; scale : scale }

(* What one set-up hands to the measurement core. *)
type inst = {
  ctx : Layers.ctx;
  virt_on_host : bool;
      (* The Host backend's engine clock is real time, so its workload reads
         its virt figures on [cpu_ns] instead, scaled like host figures. *)
  parts : metric list;  (* set-up timings of single layers *)
  start : recorder -> on_window:(unit -> unit) -> unit;
  slice_ns : int;
  window_complete : unit -> bool;
  finished : unit -> bool;
  stuck : quiesced:bool -> int;  (* unfinished ops that count as failed *)
  layer_metrics : unit -> metric list;  (* workload-specific per-layer *)
  teardown : unit -> unit;
}

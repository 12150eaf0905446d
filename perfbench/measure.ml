(* The benchmark's measurement core: set-ups, the timed phase, and the
   end-to-end and per-layer metrics computed from them. *)

let workloads =
  [ ("san_mix", San_mix.setup);
    ("grid_collectives", Grid_collectives.setup);
    ("edge_churn", Edge_churn.setup);
    ("host_echo", Host_echo.setup) ]

(* Set-ups per --trace 0 run (setup_s is their median); the slow grid
   set-up gets fewer. *)
let setups = function "grid_collectives" -> 3 | _ -> 31

type outcome = {
  rec_ : Pb.recorder;
  phase : Pb.phase;
  stuck : int;
  v_start : int;
  virt_on_host : bool;
  s0 : Layers.snap;
  sw : Layers.snap;  (* at window end (= s1 if the window never ended) *)
  s1 : Layers.snap;
  conn_peak : int;
  digest : string;
}

let timed (inst : Pb.inst) ~seconds =
  let ctx = inst.Pb.ctx in
  let s0 = Layers.snap ctx in
  let v_start = if inst.Pb.virt_on_host then Pb.cpu_ns () else Padico.now ctx.Layers.grid in
  let sw = ref None in
  let rec_ = Pb.recorder () in
  inst.Pb.start rec_ ~on_window:(fun () -> sw := Some (Layers.snap ctx));
  let conn_peak = ref 0 in
  let on_slice () =
    if !Pb.Span.enabled then
      conn_peak :=
        max !conn_peak
          (Layers.sum (fun n -> Netaccess.Sysio.conn_count (Netaccess.Sysio.get n))
             ctx.Layers.nodes)
  in
  let phase =
    Pb.run_phase ~grid:ctx.Layers.grid ~rec_ ~slice_ns:inst.Pb.slice_ns ~seconds
      ~window_complete:inst.Pb.window_complete ~finished:inst.Pb.finished
      ~on_slice ()
  in
  let s1 = Layers.snap ctx in
  let stuck = inst.Pb.stuck ~quiesced:phase.Pb.quiesced in
  let sw = Option.value !sw ~default:s1 in
  let digest =
    Pb.digest_of
      (List.map string_of_int
         [ rec_.Pb.window_end - v_start; rec_.Pb.window_done;
           rec_.Pb.window_bytes; rec_.Pb.checksum;
           Pb.Samples.count rec_.Pb.virt_lat;
           Pb.Samples.percentile rec_.Pb.virt_lat 50.0;
           Pb.Samples.percentile rec_.Pb.virt_lat 99.0 ]
       @ Layers.digest_fields s0 sw)
  in
  { rec_; phase; stuck; v_start; virt_on_host = inst.Pb.virt_on_host; s0; sw; s1;
    conn_peak = !conn_peak; digest }

let attempted o = o.rec_.Pb.ops + o.stuck
let failed o = o.rec_.Pb.failed + o.stuck
let ops_rate o = Pb.host_rate o.rec_ ~cpu_end:o.phase.Pb.cpu_end ~whole:o.phase.Pb.ended
let window_ok (inst : Pb.inst) = inst.Pb.window_complete ()

(* [os] are the timed phases of one run, first to last: one, or several
   episodes of a workload that finishes its whole population before
   --seconds. Virt figures come from the first (every episode repeats them
   exactly); host figures are the median over the episodes. [rss] is the
   process's peak RSS at the end of the first phase: later episodes only
   add the allocator's fragmentation. *)
let end_to_end ~setup_s ~rss os =
  let o = List.hd os in
  let r = o.rec_ in
  let vl = r.Pb.virt_lat in
  let over f = Pb.median (List.map f os) in
  let sum f = List.fold_left (fun a x -> a + f x) 0 os in
  let wall p =
    over (fun x -> Pb.wall_us x.rec_ ~cpu_end:x.phase.Pb.cpu_end ~whole:x.phase.Pb.ended p)
  in
  let nv = Pb.Samples.count vl and nw = sum (fun x -> Pb.wall_count x.rec_) in
  let vs = if o.virt_on_host then Pb.slowness r else 1.0 in
  [ Pb.metric ~samples:(List.length setup_s) "setup_s" "s" (Pb.median setup_s);
    Pb.metric ~samples:(sum (fun x -> x.rec_.Pb.ops)) "ops_per_host_s" "ops/s" (over ops_rate);
    Pb.metric "peak_rss_mb" "MB" rss;
    Pb.metric ~samples:nv "virt_latency_us.p50" "us" (Pb.Samples.us_at vl 50.0 /. vs);
    Pb.metric ~samples:nv "virt_latency_us.p99" "us" (Pb.Samples.us_at vl 99.0 /. vs);
    Pb.metric ~samples:r.Pb.window_done "virt_goodput_mb_s" "MB/s"
      (Pb.mb_s r.Pb.window_bytes (r.Pb.window_end - o.v_start) *. vs);
    Pb.metric ~samples:nw "wall_latency_us.p50" "us" (wall 50.0);
    Pb.metric ~samples:nw "wall_latency_us.p99" "us" (wall 99.0) ]

(* The machine's speed over timed phases, for the report: the number of
   probes and their slowness at p10, p50 and p90. *)
let speed os =
  let ds =
    List.concat_map
      (fun o ->
         let s = o.rec_.Pb.probe_ns in
         List.init (Pb.Samples.count s) (fun i ->
             float_of_int s.Pb.Samples.a.(i) /. float_of_int Pb.Speed.nominal_ns))
      os
  in
  let a = Array.of_list (List.sort compare ds) and n = List.length ds in
  let at q = if n = 0 then 0.0 else a.(min (n - 1) (int_of_float (q *. float_of_int n))) in
  Printf.sprintf "speed: %d probes, slowness p10 %.3f p50 %.3f p90 %.3f" n (at 0.1) (at 0.5)
    (at 0.9)

let per_layer (inst : Pb.inst) ~untraced ~procs o =
  let w0 = o.s0 and w = o.sw and p = o.s1 in
  let wops = o.rec_.Pb.window_done and pops = o.rec_.Pb.ops in
  let lvl = Layers.level inst.Pb.ctx in
  let f = float_of_int in
  let d get = get w - get w0 in
  let m = Pb.metric in
  let gc = Gc.quick_stat () in
  let trace_records = Padico_obs.Trace.length () + Padico_obs.Trace.dropped () in
  let ip_lost = d (fun s -> s.Layers.ip_lost) in
  let base =
    [ m "engine.run_host_s" "s" (f o.phase.Pb.run_host_ns /. 1e9);
      m "engine.slowdown" "s/s" (Pb.ratio o.phase.Pb.run_host_ns o.phase.Pb.virt_ns);
      m "engine.procs_spawned" "count" (f procs);
      m ~samples:wops "bytebuf.copies_per_op" "B/op" (Pb.ratio (d (fun s -> s.Layers.copies)) wops);
      m "bytebuf.pool_hit_ratio" "ratio"
        (Pb.ratio (d (fun s -> s.Layers.pool_hits))
           (d (fun s -> s.Layers.pool_hits) + d (fun s -> s.Layers.pool_misses)));
      m ~samples:pops "runtime.minor_words_per_op" "words/op"
        ((p.Layers.minor_words -. w0.Layers.minor_words) /. f (max 1 pops));
      m ~samples:pops "runtime.promoted_words_per_op" "words/op"
        ((p.Layers.promoted_words -. w0.Layers.promoted_words) /. f (max 1 pops));
      m "runtime.major_collections" "count"
        (f (p.Layers.major_collections - w0.Layers.major_collections));
      m "runtime.top_heap_mb" "MB" (f gc.Gc.top_heap_words *. 8.0 /. 1048576.0);
      m ~samples:wops "simnet.san.frames_per_op" "frames/op" (Pb.ratio (d (fun s -> s.Layers.san_frames)) wops);
      m ~samples:wops "simnet.wan.frames_per_op" "frames/op" (Pb.ratio (d (fun s -> s.Layers.ip_frames)) wops);
      m ~samples:wops "simnet.wan.bytes_per_op" "B/op" (Pb.ratio (d (fun s -> s.Layers.ip_bytes)) wops);
      m "simnet.frames_lost" "count" (f (d (fun s -> s.Layers.frames_lost)));
      m "simnet.wire_efficiency" "ratio"
        (Pb.ratio o.rec_.Pb.window_bytes (d (fun s -> s.Layers.all_bytes)));
      m ~samples:wops "gm.messages_per_op" "msgs/op" (Pb.ratio (d (fun s -> s.Layers.gm_msgs)) wops);
      m ~samples:lvl.Layers.tcp_conns "tcp.retransmits_per_conn" "retx/conn"
        (Pb.ratio ip_lost lvl.Layers.tcp_conns);
      m ~samples:lvl.Layers.tcp_conns "tcp.resident_bytes_per_conn" "B/conn"
        (Pb.ratio lvl.Layers.tcp_resident lvl.Layers.tcp_conns);
      m "mad.packets_per_msg" "pkts/msg"
        (Pb.ratio (d (fun s -> s.Layers.mad_msgs)) (d (fun s -> s.Layers.madio_msgs)));
      m ~samples:wops "madio.messages_per_op" "msgs/op" (Pb.ratio (d (fun s -> s.Layers.madio_msgs)) wops);
      m "madio.credit_stalls" "count" (f (d (fun s -> s.Layers.credit_stalls)));
      m "madio.packets_saved" "count" (f (d (fun s -> s.Layers.packets_saved)));
      m "na_core.dispatched.madio" "count" (f (d (fun s -> s.Layers.na_madio)));
      m "na_core.dispatched.sysio" "count" (f (d (fun s -> s.Layers.na_sysio)));
      m "na_core.wait_ns.madio" "ns"
        (let n = d (fun s -> s.Layers.na_madio) in
         if n = 0 then 0.0 else (w.Layers.wait_madio -. w0.Layers.wait_madio) /. f n);
      m "na_core.wait_ns.sysio" "ns"
        (let n = d (fun s -> s.Layers.na_sysio) in
         if n = 0 then 0.0 else (w.Layers.wait_sysio -. w0.Layers.wait_sysio) /. f n);
      m "na_core.queue_peak.madio" "count" (f lvl.Layers.queue_peak_madio);
      m "na_core.queue_peak.sysio" "count" (f lvl.Layers.queue_peak_sysio);
      m "na_core.shed" "count" (f (d (fun s -> s.Layers.shed)));
      m "na_core.polls_busy" "count" (f (d (fun s -> s.Layers.polls_busy)));
      m "na_core.polls_idle" "count" (f (d (fun s -> s.Layers.polls_idle)));
      m ~samples:wops "na_core.ready_drains_per_op" "drains/op"
        (Pb.ratio (d (fun s -> s.Layers.ready_drains)) wops);
      m "na_core.ready_polls" "count" (f (d (fun s -> s.Layers.ready_polls)));
      m ~samples:wops "sysio.events_per_op" "events/op"
        (Pb.ratio (d (fun s -> s.Layers.sysio_events)) wops);
      m "sysio.conn_count_peak" "count" (f (max o.conn_peak lvl.Layers.conns));
      m ~samples:lvl.Layers.conns "sysio.bytes_resident_per_conn" "B/conn"
        (Pb.ratio lvl.Layers.sysio_resident lvl.Layers.conns);
      m "sysio.conns_reaped" "count" (f (d (fun s -> s.Layers.reaped)));
      m ~samples:wops "collectives.wan_msgs_per_op" "msgs/op"
        (Pb.ratio (d (fun s -> s.Layers.coll_msgs)) wops);
      m ~samples:wops "collectives.wan_bytes_per_op" "B/op"
        (Pb.ratio (d (fun s -> s.Layers.coll_bytes)) wops);
      m ~samples:pops "hostio.loop_iterations_per_op" "iter/op"
        (Pb.ratio (p.Layers.loop_iters - w0.Layers.loop_iters) pops);
      m ~samples:pops "hostio.fd_events_per_op" "events/op"
        (Pb.ratio (p.Layers.fd_events - w0.Layers.fd_events) pops);
      m ~samples:pops "hostio.timers_fired_per_op" "timers/op"
        (Pb.ratio (p.Layers.timers - w0.Layers.timers) pops);
      m ~samples:pops "obs.trace_records_per_op" "records/op" (Pb.ratio trace_records pops);
      m "obs.trace_dropped" "count" (f (Padico_obs.Trace.dropped ()));
      m "obs.overhead_ratio" "ratio" (if untraced <= 0.0 then 0.0 else ops_rate o /. untraced) ]
  in
  (* Workload-specific metrics override the generic ones of the same name;
     names no layer produced on this workload read 0. *)
  let given = inst.Pb.parts @ inst.Pb.layer_metrics () @ base in
  List.map
    (fun (name, unit_, _) ->
       match List.find_opt (fun x -> x.Pb.m_name = name) given with
       | Some x -> x
       | None -> Pb.metric name unit_ 0.0)
    (List.filter (fun (n, _, _) -> n <> "fail_ratio") Spec.per_layer)

let setup_once setup cfg =
  Pb.fresh ();
  let slow = Pb.Speed.slowness () in
  let h0 = Pb.cpu_ns () in
  let inst = setup cfg in
  (inst, float_of_int (Pb.cpu_ns () - h0) /. 1e9 /. slow)

(* One set-up and one timed phase; the set-up's layer timings, the
   outcome, and whether the virt window completed. The grid is garbage once
   this returns. *)
let once setup cfg ~seconds =
  let inst, _ = setup_once setup cfg in
  let o = timed inst ~seconds in
  let complete = window_ok inst in
  inst.Pb.teardown ();
  (inst.Pb.parts, o, complete)

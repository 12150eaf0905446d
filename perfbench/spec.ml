(* Metric catalogue of the benchmark: names, units and better directions.
   BENCHMARK.json at the repository root lists the same names; run.py
   checks every result line against it. *)

type dir = Lower | Higher

let end_to_end =
  [ ("setup_s", "s", Lower);
    ("ops_per_host_s", "ops/s", Higher);
    ("peak_rss_mb", "MB", Lower);
    ("virt_latency_us.p50", "us", Lower);
    ("virt_latency_us.p99", "us", Lower);
    ("virt_goodput_mb_s", "MB/s", Higher);
    ("wall_latency_us.p50", "us", Lower);
    ("wall_latency_us.p99", "us", Lower) ]

let stacks = [ "circuit"; "vlink"; "mpi"; "corba-omniorb4"; "corba-mico"; "java" ]

let per_layer =
  [ ("engine.run_host_s", "s", Lower);
    ("engine.slowdown", "s/s", Lower);
    ("engine.procs_spawned", "count", Lower);
    ("bytebuf.copies_per_op", "B/op", Lower);
    ("bytebuf.pool_hit_ratio", "ratio", Higher);
    ("runtime.minor_words_per_op", "words/op", Lower);
    ("runtime.promoted_words_per_op", "words/op", Lower);
    ("runtime.major_collections", "count", Lower);
    ("runtime.top_heap_mb", "MB", Lower);
    ("simnet.san.frames_per_op", "frames/op", Lower);
    ("simnet.wan.frames_per_op", "frames/op", Lower);
    ("simnet.wan.bytes_per_op", "B/op", Lower);
    ("simnet.frames_lost", "count", Lower);
    ("simnet.wire_efficiency", "ratio", Higher);
    ("gm.messages_per_op", "msgs/op", Lower);
    ("tcp.handshake_virt_us.p50", "us", Lower);
    ("tcp.handshake_virt_us.p99", "us", Lower);
    ("tcp.retransmits_per_conn", "retx/conn", Lower);
    ("tcp.resident_bytes_per_conn", "B/conn", Lower);
    ("mad.packets_per_msg", "pkts/msg", Lower);
    ("madio.messages_per_op", "msgs/op", Lower);
    ("madio.credit_stalls", "count", Lower);
    ("madio.packets_saved", "count", Higher);
    ("na_core.dispatched.madio", "count", Lower);
    ("na_core.dispatched.sysio", "count", Lower);
    ("na_core.wait_ns.madio", "ns", Lower);
    ("na_core.wait_ns.sysio", "ns", Lower);
    ("na_core.queue_peak.madio", "count", Lower);
    ("na_core.queue_peak.sysio", "count", Lower);
    ("na_core.shed", "count", Lower);
    ("na_core.polls_busy", "count", Lower);
    ("na_core.polls_idle", "count", Lower);
    ("na_core.ready_drains_per_op", "drains/op", Lower);
    ("na_core.ready_polls", "count", Lower);
    ("sysio.events_per_op", "events/op", Lower);
    ("sysio.conn_count_peak", "count", Lower);
    ("sysio.bytes_resident_per_conn", "B/conn", Lower);
    ("sysio.conns_reaped", "count", Higher) ]
  @ List.concat_map
    (fun s ->
       [ (s ^ ".virt_latency_us.p50", "us", Lower);
         (s ^ ".virt_latency_us.p99", "us", Lower);
         (s ^ ".send_host_us.p50", "us", Lower);
         (s ^ ".send_wait_virt_us.p50", "us", Lower) ])
    stacks
  @ [ ("mpi.bulk_goodput_mb_s", "MB/s", Higher);
      ("circuit.create_s", "s", Lower);
      ("collectives.create_s", "s", Lower) ]
  @ List.concat_map
    (fun op ->
       [ (Printf.sprintf "collectives.%s.virt_us.p50" op, "us", Lower);
         (Printf.sprintf "collectives.%s.virt_us.p99" op, "us", Lower) ])
    [ "barrier"; "bcast"; "allreduce"; "gather" ]
  @ [ ("collectives.wan_msgs_per_op", "msgs/op", Lower);
      ("collectives.wan_bytes_per_op", "B/op", Lower);
      ("hostio.loop_iterations_per_op", "iter/op", Lower);
      ("hostio.fd_events_per_op", "events/op", Lower);
      ("hostio.timers_fired_per_op", "timers/op", Lower);
      ("hostio.send_host_us.p50", "us", Lower);
      ("obs.trace_records_per_op", "records/op", Lower);
      ("obs.trace_dropped", "count", Lower);
      ("obs.overhead_ratio", "ratio", Higher);
      ("fail_ratio", "failed/attempted", Lower) ]

let dir_name = function Lower -> "lower" | Higher -> "higher"

(** Host-side CPU cost model, calibrated to the paper's testbed
    (dual Pentium III 1 GHz, 512 MB, Linux 2.2, IPDPS 2004 evaluation).

    Every software layer charges the node CPU a [fixed + per_byte * n] cost
    drawn from here. The constants are chosen so that the latency/bandwidth
    *anchors* reported in the paper come out of the simulation:

    - Table 1 one-way latencies over Myrinet-2000 (µs):
      Circuit 8.4, VLink 10.2, MPICH 12.06, omniORB4 18.4, omniORB3 20.3,
      Java sockets 40.
    - Table 1 / Figure 3 peak bandwidths: ≈ 240 MB/s (96 % of the 250 MB/s
      hardware) for the zero-copy stacks; Mico 55 MB/s (63 µs), ORBacus
      63 MB/s (54 µs) because they always copy while marshalling.
    - §4.1: MadIO adds < 0.1 µs over plain Madeleine (header combining).

    The structural claims (who copies, who multiplexes, where translation
    happens) are implemented, not parameterized; only the *rates* live
    here. *)

(** {1 System-level drivers} *)

val gm_send_ns : int
(** GM-like driver, per-fragment host cost to post a DMA send. *)

val gm_recv_ns : int
(** GM-like driver, per-fragment receive handling (polled completion). *)

val udp_send_ns : int
val udp_recv_ns : int

val tcp_send_seg_ns : int
(** TCP output path per segment (checksum, header, driver). *)

val tcp_recv_seg_ns : int
val tcp_per_byte_ns : float
(** TCP per-byte cost (checksum + one kernel copy). *)

val socket_op_ns : int
(** Socket API crossing (syscall-like) per operation. *)

(** {1 Madeleine and NetAccess} *)

val mad_send_ns : int
(** Madeleine per-message send-side cost (pack management). *)

val mad_recv_ns : int

val madio_combined_ns : int
(** MadIO multiplexing cost per message when the multiplexing header is
    combined into the first packet (the paper measures < 0.1 µs). *)

val madio_separate_ns : int
(** MadIO cost when the header travels as its own packet (ablation:
    header-combining disabled). *)

val madio_header_bytes : int
val sysio_poll_ns : int
(** One scan of the SysIO receipt loop over ready sockets. *)

val sysio_callback_ns : int

(** {2 Small-message coalescing (MadIO)} *)

val madio_agg_threshold_bytes : int
(** Coalescing threshold: messages strictly smaller coalesce into one
    Madeleine packet while their flow has a packet in flight. *)

val madio_agg_max_batch_bytes : int
(** Cap on batched payload+sublength bytes per packet. *)

val madio_agg_permsg_ns : int
(** Per-sub-message cost of batch assembly/demux (cheap pointer walk),
    charged on top of the one combined-header cost per packet. *)

(** {1 Abstract interfaces} *)

val circuit_op_ns : int
(** Circuit pack/unpack bookkeeping per message end. *)

val vlink_op_ns : int
(** VLink post/completion machinery per operation end. *)

(** {1 Personalities (thin wrappers: syntax only)} *)

val personality_ns : int
(** VIO / SysWrap / AIO / FM / virtual-Madeleine per-call cost. *)

(** {1 Middleware} *)

val mpi_ns : int
(** Mini-MPI per-message end cost (envelope matching, request management). *)

val corba_omniorb4_ns : int
(** omniORB4-profile per-invocation end cost (zero-copy marshalling). *)

val corba_omniorb3_ns : int
val corba_mico_ns : int
(** Mico-profile fixed per-invocation end cost (slow request path). *)

val corba_orbacus_ns : int
val corba_mico_per_byte_ns : float
(** Mico per-byte marshalling cost: per-element encoding plus copy. *)

val corba_orbacus_per_byte_ns : float
val java_ns : int
(** JVM socket per-operation end cost (interpreter + JNI crossing). *)

val java_per_byte_ns : float
val soap_ns : int
val soap_per_byte_ns : float
(** Text encoding/decoding per byte of binary payload. *)

(** {1 Methods} *)

val memcpy_per_byte_ns : float
(** One buffer copy on the testbed (≈ 800 MB/s on PIII-1GHz). *)

val compress_per_byte_ns : float
(** AdOC LZ compression throughput (≈ 20 MB/s class). *)

val decompress_per_byte_ns : float
val cipher_per_byte_ns : float
val vrp_send_ns : int
val vrp_recv_ns : int

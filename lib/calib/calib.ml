(* Anchors (see .mli): Table 1 latencies are one-way over Myrinet-2000.
   A small-message one-way trip decomposes as

     wire (1.5 us propagation + serialization)
     + per-layer fixed costs on each side,

   so for instance Circuit = GM (1.6+1.6) + Madeleine (1.2+1.2)
   + MadIO (0.05) + Circuit (0.55+0.55) + wire (~1.7) ~= 8.45 us, matching
   the paper's 8.4 us. Peak bandwidths are pipeline bottlenecks:
   max(wire per-byte, slowest per-byte software stage). *)

let gm_send_ns = 1_600
let gm_recv_ns = 1_600

let udp_send_ns = 3_000
let udp_recv_ns = 3_000

let tcp_send_seg_ns = 8_000
let tcp_recv_seg_ns = 8_000
let tcp_per_byte_ns = 1.0
let socket_op_ns = 3_000

let mad_send_ns = 1_200
let mad_recv_ns = 1_200

let madio_combined_ns = 25
let madio_separate_ns = 400
(* 14 since the flow-control PR: magic u16, lchannel u16, length u32,
   combined u8, credit-grant u32, one spare byte. Still under the paper's
   16-byte multiplexing header, and the credit grant piggybacks at zero
   extra messages. *)
let madio_header_bytes = 14

let sysio_poll_ns = 500
let sysio_callback_ns = 300

(* Small-message coalescing (MadIO). *)
let madio_agg_threshold_bytes = 256
let madio_agg_max_batch_bytes = 4_096
let madio_agg_permsg_ns = 25

let circuit_op_ns = 550
let vlink_op_ns = 1_450

let personality_ns = 100

let mpi_ns = 1_700

(* The ORB request path performs two VLink reads per GIOP message (header,
   then body), so the per-message VLink machinery appears twice on the
   receive side; the fixed ORB costs below are calibrated net of that. *)
let corba_omniorb4_ns = 2_450
let corba_omniorb3_ns = 3_400
let corba_mico_ns = 24_750
let corba_orbacus_ns = 20_250
let corba_mico_per_byte_ns = 18.2
let corba_orbacus_per_byte_ns = 15.9

let java_ns = 14_800
let java_per_byte_ns = 0.2

let soap_ns = 30_000
let soap_per_byte_ns = 60.0

let memcpy_per_byte_ns = 1.25
let compress_per_byte_ns = 50.0
let decompress_per_byte_ns = 15.0
let cipher_per_byte_ns = 10.0

let vrp_send_ns = 2_000
let vrp_recv_ns = 2_000

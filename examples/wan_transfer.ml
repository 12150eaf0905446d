(* GridFTP-flavoured bulk transfer across a high-latency WAN: the same
   application code, three deployments — plain TCP, parallel streams, and
   parallel streams + adaptive compression (for compressible data). The
   methods are chosen in the preferences; the transfer code never changes.

     dune exec examples/wan_transfer.exe *)

module Bb = Engine.Bytebuf
module Vio = Personalities.Vio
module Prefs = Selector.Prefs

let megabytes = 16

let transfer ~prefs ~compressible ~label =
  let grid = Padico.create ~prefs () in
  let a = Padico.add_node grid "site-a" in
  let b = Padico.add_node grid "site-b" in
  ignore (Padico.add_segment grid Simnet.Presets.vthd [ a; b ]);
  let total = megabytes * 1_000_000 in
  let received = ref 0 in
  let finished = ref 0 in
  Padico.listen grid b ~port:2811 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"ftp-server" (fun () ->
             let buf = Bb.create 65_536 in
             let rec loop () =
               let n = Vio.read vl buf in
               if n > 0 then begin
                 received := !received + n;
                 if !received >= total then finished := Padico.now grid
                 else loop ()
               end
             in
             loop ())));
  ignore
    (Padico.spawn grid a ~name:"ftp-client" (fun () ->
         let vl = Padico.connect grid ~src:a ~dst:b ~port:2811 in
         (match Vio.connect_wait vl with
          | Ok () -> ()
          | Error e -> failwith e);
         let chunk = Bb.create 65_536 in
         if not compressible then
           Bb.fill_random chunk (Engine.Rng.create 42);
         let sent = ref 0 in
         while !sent < total do
           ignore (Vio.write vl chunk);
           sent := !sent + Bb.length chunk
         done));
  Padico.run grid ~until:(Engine.Time.sec 600);
  if !finished = 0 then Printf.printf "%-44s did not finish\n" label
  else
    Printf.printf "%-44s %6.2f s   (%5.2f MB/s)\n" label
      (Engine.Time.to_float_sec !finished)
      (Engine.Stats.bandwidth_mb_s ~bytes_transferred:total
         ~elapsed_ns:!finished)

let () =
  Printf.printf "Transferring %d MB across the VTHD WAN (8 ms RTT):\n\n"
    megabytes;
  let base = { Prefs.default with Prefs.cipher_untrusted = false } in
  transfer ~prefs:base ~compressible:false
    ~label:"plain TCP stream (incompressible)";
  transfer
    ~prefs:{ base with Prefs.pstream_on_wan = true; pstream_streams = 4 }
    ~compressible:false ~label:"4 parallel streams (incompressible)";
  transfer
    ~prefs:
      { base with Prefs.pstream_on_wan = true; pstream_streams = 4;
        adoc_on_slow = true; adoc_threshold_bps = 15e6 }
    ~compressible:true
    ~label:"4 parallel streams + AdOC (compressible)";
  print_newline ();
  Printf.printf
    "Same deployment, but the site link is untrusted and ciphering is on:\n";
  transfer ~prefs:Prefs.default ~compressible:false
    ~label:"plain TCP stream + cipher (untrusted)";
  transfer
    ~prefs:{ Prefs.default with Prefs.pstream_on_wan = true }
    ~compressible:false
    ~label:"4 parallel streams + cipher (untrusted)"

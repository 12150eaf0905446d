(* Experiment E7 — AdOC-class adapter swap: online compression pays on slow
   links for compressible data and stays out of the way otherwise; the
   swap is invisible to the application (same Vio code). *)

module Bb = Engine.Bytebuf
module Vio = Personalities.Vio

let goodput ~model ~adoc ~compressible ~total () =
  let prefs =
    { Selector.Prefs.default with
      Selector.Prefs.adoc_on_slow = adoc;
      adoc_threshold_bps = 15e6;
      cipher_untrusted = false;
      vrp_on_lossy = false }
  in
  let grid, a, b = Bhelp.pair model ~prefs () in
  let t0 = ref 0 and t1 = ref 0 in
  let received = ref 0 in
  Padico.listen grid b ~port:5000 (fun vl ->
      ignore
        (Padico.spawn grid b ~name:"sink" (fun () ->
             let buf = Bb.create 65_536 in
             let rec loop () =
               let n = Vio.read vl buf in
               if n > 0 then begin
                 if !received = 0 then t0 := Padico.now grid;
                 received := !received + n;
                 if !received >= total then t1 := Padico.now grid else loop ()
               end
             in
             loop ())));
  let h =
    Padico.spawn grid a ~name:"src" (fun () ->
        let vl = Padico.connect grid ~src:a ~dst:b ~port:5000 in
        (match Vio.connect_wait vl with Ok () -> () | Error e -> failwith e);
        let rng = Engine.Rng.create 7 in
        let chunk = Bb.create 65_536 in
        if compressible then Bb.fill_zero chunk else Bb.fill_random chunk rng;
        let sent = ref 0 in
        while !sent < total do
          let n = min 65_536 (total - !sent) in
          ignore (Vio.write vl (Bb.sub chunk 0 n));
          sent := !sent + n
        done)
  in
  Padico.run grid ~until:(Engine.Time.sec 3000);
  Bhelp.fail_on_error h;
  if !received < total then nan
  else Bhelp.mb_s total (!t1 - !t0)

let run () =
  Bhelp.print_header
    "E7 — adaptive online compression (AdOC adapter), application goodput (MB/s)";
  let cases =
    [ ("modem (56kb/s)", "modem", Simnet.Presets.modem, 200_000);
      ("Ethernet-100", "ethernet100", Simnet.Presets.ethernet100, 8_000_000) ]
  in
  let cells =
    List.concat_map
      (fun (name, key, model, total) ->
         Printf.printf "%s:\n" name;
         List.map
           (fun (dname, data, compressible) ->
              let plain = goodput ~model ~adoc:false ~compressible ~total () in
              let with_adoc = goodput ~model ~adoc:true ~compressible ~total () in
              Printf.printf "  %-22s straight %8.3f   adoc %8.3f\n" dname plain
                with_adoc;
              flush stdout;
              let cell = key ^ "." ^ data in
              Bhelp.record ~experiment:"e7" (cell ^ ".straight_mb_s") plain;
              Bhelp.record ~experiment:"e7" (cell ^ ".adoc_mb_s") with_adoc;
              (cell, plain, with_adoc))
           [ ("compressible data", "compressible", true);
             ("incompressible data", "incompressible", false) ])
      cases
  in
  print_endline
    "expected shape: adoc multiplies goodput for compressible data on the";
  print_endline
    "slow link, and never hurts elsewhere (adaptivity turns it off).";
  let _, plain, with_adoc =
    List.find (fun (cell, _, _) -> cell = "modem.compressible") cells
  in
  (* NaN (a transfer that never finished) fails the comparison too. *)
  if not (with_adoc >= 10.0 *. plain) then begin
    Printf.eprintf
      "e7: AdOC must multiply compressible modem goodput >= 10x (got %.3f vs \
       %.3f MB/s)\n"
      with_adoc plain;
    exit 1
  end

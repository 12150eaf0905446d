(* padico-cli: explore the framework from the command line.

     padico_cli registry
     padico_cli selector  --net vthd [--pstream] [--adoc] [--vrp] [--no-cipher]
     padico_cli ping      --net myrinet --middleware corba --iters 1000
     padico_cli bandwidth --net vthd --middleware vio --mbytes 16 [--pstream N]
     padico_cli trace     --net vthd --iters 50 -o trace.json

   Measurements are virtual-time results from the simulator by default;
   $(b,--backend host) (where accepted) runs the same program over real
   Unix sockets and reports wall-clock numbers instead. *)

open Cmdliner

let nets =
  [ ("myrinet", Simnet.Presets.myrinet2000); ("sci", Simnet.Presets.sci);
    ("ethernet", Simnet.Presets.ethernet100);
    ("gigabit", Simnet.Presets.gigabit_lan); ("vthd", Simnet.Presets.vthd);
    ("lossy", Simnet.Presets.transcontinental);
    ("modem", Simnet.Presets.modem) ]

let net_conv =
  Arg.enum (List.map (fun (n, m) -> (n, m)) nets)

let net_arg =
  Arg.(value & opt net_conv Simnet.Presets.myrinet2000
       & info [ "net" ] ~docv:"NET"
         ~doc:"Network between the two nodes: $(b,myrinet), $(b,sci), \
               $(b,ethernet), $(b,gigabit), $(b,vthd), $(b,lossy), \
               $(b,modem).")

let backend_arg =
  Arg.(value
       & opt (enum [ ("sim", Padico.Sim); ("host", Padico.Host) ]) Padico.Sim
       & info [ "backend" ] ~docv:"BACKEND"
         ~doc:"Execution backend: $(b,sim) (virtual clock, default) or \
               $(b,host) (real Unix sockets, wall-clock time).")

type mw = Vio_mw | Mpi_mw | Corba of Mw_corba.Cdr.profile | Java_mw

let mw_conv =
  Arg.enum
    [ ("vio", Vio_mw); ("mpi", Mpi_mw);
      ("omniorb4", Corba Mw_corba.Cdr.omniorb4);
      ("omniorb3", Corba Mw_corba.Cdr.omniorb3);
      ("mico", Corba Mw_corba.Cdr.mico);
      ("orbacus", Corba Mw_corba.Cdr.orbacus); ("java", Java_mw) ]

let mw_arg =
  Arg.(value & opt mw_conv Vio_mw
       & info [ "middleware"; "m" ] ~docv:"MW"
         ~doc:"Middleware: $(b,vio), $(b,mpi), $(b,omniorb4), \
               $(b,omniorb3), $(b,mico), $(b,orbacus), $(b,java).")

let prefs_term =
  let pstream =
    Arg.(value & opt (some int) None
         & info [ "pstream" ] ~docv:"N" ~doc:"Stripe WAN links over N sockets.")
  in
  let adoc =
    Arg.(value & flag & info [ "adoc" ] ~doc:"Adaptive compression on slow links.")
  in
  let vrp =
    Arg.(value & flag & info [ "vrp" ] ~doc:"Tunable-loss transport on lossy WANs.")
  in
  let no_cipher =
    Arg.(value & flag & info [ "no-cipher" ] ~doc:"Never cipher, even untrusted links.")
  in
  let make pstream adoc vrp no_cipher =
    let p = Selector.Prefs.default in
    { p with
      Selector.Prefs.pstream_on_wan = pstream <> None;
      pstream_streams = Option.value ~default:p.Selector.Prefs.pstream_streams pstream;
      adoc_on_slow = adoc;
      adoc_threshold_bps = (if adoc then 15e6 else p.Selector.Prefs.adoc_threshold_bps);
      vrp_on_lossy = vrp;
      cipher_untrusted = not no_cipher }
  in
  Term.(const make $ pstream $ adoc $ vrp $ no_cipher)

(* ---------- registry ---------- *)

let registry_cmd =
  let run () =
    ignore (Padico.create ());
    List.iter
      (fun e -> Format.printf "%a@." Padico.Registry.pp_entry e)
      (Padico.Registry.all ())
  in
  Cmd.v (Cmd.info "registry" ~doc:"List registered drivers/adapters/personalities.")
    Term.(const run $ const ())

(* ---------- selector ---------- *)

let selector_cmd =
  let run model prefs =
    let grid = Padico.create ~prefs () in
    let a = Padico.add_node grid "a" in
    let b = Padico.add_node grid "b" in
    ignore (Padico.add_segment grid model [ a; b ]);
    let choice = Padico.connect_choice grid ~src:a ~dst:b in
    Format.printf "link model : %a@." Simnet.Linkmodel.pp model;
    Format.printf "selector   : %a@." Selector.pp_choice choice
  in
  Cmd.v (Cmd.info "selector" ~doc:"Show which adapter the selector would pick.")
    Term.(const run $ net_arg $ prefs_term)

(* ---------- ping ---------- *)

let iters_arg =
  Arg.(value & opt int 1000 & info [ "iters" ] ~docv:"N" ~doc:"Ping-pong rounds.")

let ping_cmd =
  let run model prefs backend mw iters =
    let grid, a, b = Scenario.pair model ~prefs ~backend () in
    let lat =
      match mw with
      | Vio_mw -> Scenario.vio_latency grid ~src:a ~dst:b ~port:4000 ~size:4 ~iters
      | Mpi_mw ->
        let comms = Scenario.mpi_pair grid a b in
        Scenario.mpi_latency grid comms ~a ~b ~iters
      | Corba profile -> Scenario.corba_latency ~profile grid ~a ~b ~port:3000 ~iters
      | Java_mw -> Scenario.java_latency grid ~a ~b ~port:7000 ~iters
    in
    Printf.printf "one-way latency: %.2f us (%d iterations%s)\n" lat iters
      (if backend = Padico.Host then ", wall-clock" else "")
  in
  Cmd.v (Cmd.info "ping" ~doc:"One-way latency of a middleware over a network.")
    Term.(const run $ net_arg $ prefs_term $ backend_arg $ mw_arg $ iters_arg)

(* ---------- bandwidth ---------- *)

let mbytes_arg =
  Arg.(value & opt int 32 & info [ "mbytes" ] ~docv:"MB" ~doc:"Payload volume.")

let chunk_arg =
  Arg.(value & opt int 65536 & info [ "chunk" ] ~docv:"BYTES" ~doc:"Write size.")

let bandwidth_cmd =
  let run model prefs backend mw mbytes chunk =
    let grid, a, b = Scenario.pair model ~prefs ~backend () in
    let total = mbytes * 1_000_000 in
    let bw =
      match mw with
      | Vio_mw -> Scenario.vio_stream_bw grid ~src:a ~dst:b ~port:5000 ~total ~chunk
      | Mpi_mw ->
        let comms = Scenario.mpi_pair grid a b in
        Scenario.mpi_stream_bw grid comms ~a ~b ~size:chunk ~count:(total / chunk)
      | Corba profile ->
        Scenario.corba_stream_bw ~profile grid ~a ~b ~port:3000 ~size:chunk
          ~count:(total / chunk)
      | Java_mw ->
        Scenario.java_stream_bw grid ~a ~b ~port:7000 ~size:chunk
          ~count:(total / chunk)
    in
    Printf.printf "bandwidth: %.2f MB/s (%d MB in %d-byte writes%s)\n" bw
      mbytes chunk (if backend = Padico.Host then ", wall-clock" else "")
  in
  Cmd.v (Cmd.info "bandwidth" ~doc:"Streaming bandwidth of a middleware over a network.")
    Term.(const run $ net_arg $ prefs_term $ backend_arg $ mw_arg $ mbytes_arg
          $ chunk_arg)

(* ---------- trace ---------- *)

let trace_cmd =
  let out_arg =
    Arg.(value & opt string "trace.json"
         & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Where to write the Chrome trace-event JSON (load it in \
                 about:tracing or ui.perfetto.dev).")
  in
  let capacity_arg =
    Arg.(value & opt int 65536
         & info [ "capacity" ] ~docv:"N" ~doc:"Trace ring-buffer capacity.")
  in
  let run model prefs mw iters out capacity =
    (* Enable before building the grid so selection-layer events (which
       fire at connect time) are captured too. *)
    Padico_obs.Metrics.reset ();
    Padico_obs.Trace.enable ~capacity ();
    let grid, a, b = Scenario.pair model ~prefs () in
    let lat =
      match mw with
      | Vio_mw -> Scenario.vio_latency grid ~src:a ~dst:b ~port:4000 ~size:4 ~iters
      | Mpi_mw ->
        let comms = Scenario.mpi_pair grid a b in
        Scenario.mpi_latency grid comms ~a ~b ~iters
      | Corba profile -> Scenario.corba_latency ~profile grid ~a ~b ~port:3000 ~iters
      | Java_mw -> Scenario.java_latency grid ~a ~b ~port:7000 ~iters
    in
    Padico_obs.Trace.disable ();
    Padico_obs.Export_chrome.write_file out;
    (* Sanity-check our own output: parse it back and count events per
       layer, so a broken export fails loudly rather than in the viewer. *)
    let ic = open_in out in
    let len = in_channel_length ic in
    let contents = really_input_string ic len in
    close_in ic;
    (match Padico_obs.Json.parse contents with
     | Error msg -> failwith ("exported trace is not valid JSON: " ^ msg)
     | Ok _ -> ());
    Format.printf "%a@." Padico_obs.Export_summary.pp ();
    Printf.printf "one-way latency: %.2f us (%d iterations)\n" lat iters;
    Printf.printf "trace: %d records (%d dropped) -> %s\n"
      (Padico_obs.Trace.length ()) (Padico_obs.Trace.dropped ()) out
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a ping-pong scenario with virtual-time tracing enabled; \
             write a Chrome trace-event JSON and print the metrics summary.")
    Term.(const run $ net_arg $ prefs_term $ mw_arg $ iters_arg $ out_arg
          $ capacity_arg)

(* ---------- fault ---------- *)

let fault_cmd =
  let plan_arg =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"PLAN"
           ~doc:"Fault plan file (one event per line, e.g. \
                 $(b,at 2ms link-down san)). Omit it for a clean run.")
  in
  let expr_arg =
    Arg.(value & opt_all string []
         & info [ "e"; "event" ] ~docv:"EVENT"
           ~doc:"Inline plan event (repeatable), e.g. \
                 $(b,-e 'at 2ms link-down san'). Appended after $(i,PLAN).")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"SEED"
           ~doc:"Simulation seed: same seed and plan replay identically.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Also write a Chrome trace-event JSON of the run.")
  in
  let run plan_file exprs mbytes chunk seed out =
    let parse_part = function
      | `File f -> Padico_fault.Plan.parse_file f
      | `Inline e -> Padico_fault.Plan.parse e
    in
    let parts =
      (match plan_file with Some f -> [ `File f ] | None -> [])
      @ List.map (fun e -> `Inline e) exprs
    in
    let plan =
      List.fold_left
        (fun acc part ->
           match parse_part part with
           | Ok evs -> acc @ evs
           | Error msg ->
             prerr_endline ("fault plan: " ^ msg);
             exit 2)
        [] parts
    in
    if out <> None then begin
      Padico_obs.Metrics.reset ();
      Padico_obs.Trace.enable ()
    end;
    (* Two nodes sharing a Myrinet SAN ("san") and a fallback Fast-Ethernet
       LAN ("lan"): the topology every failover example in DESIGN.md uses. *)
    let grid = Padico.create ~seed () in
    let a = Padico.add_node grid "a" in
    let b = Padico.add_node grid "b" in
    ignore (Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san"
              [ a; b ]);
    ignore (Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan"
              [ a; b ]);
    let inj = Padico_fault.Inject.apply (Padico.net grid) plan in
    Resilient.listen grid b ~port:9000 (fun vl ->
        ignore
          (Padico.spawn grid b ~name:"echo" (fun () ->
               let buf = Engine.Bytebuf.create 65_536 in
               let rec loop () =
                 match Vlink.Vl.await (Vlink.Vl.post_read vl buf) with
                 | Vlink.Vl.Done n ->
                   (match
                      Vlink.Vl.await
                        (Vlink.Vl.post_write vl (Engine.Bytebuf.sub buf 0 n))
                    with
                    | Vlink.Vl.Done _ -> loop ()
                    | _ -> ())
                 | _ -> ()
               in
               loop ())));
    let conn = Resilient.connect grid ~src:a ~dst:b ~port:9000 in
    let cvl = Resilient.vl conn in
    let total = mbytes * 1_000_000 in
    let received = ref 0 in
    let t_start = ref 0 and t_end = ref 0 in
    ignore
      (Padico.spawn grid a ~name:"client" (fun () ->
           (match Vlink.Vl.await_connected cvl with
            | Ok () -> ()
            | Error m -> failwith ("connect: " ^ m));
           t_start := Padico.now grid;
           let sent = ref 0 in
           while !sent < total do
             let n = min chunk (total - !sent) in
             ignore
               (Vlink.Vl.post_write cvl (Engine.Bytebuf.create n));
             sent := !sent + n
           done;
           let buf = Engine.Bytebuf.create chunk in
           let rec rd () =
             if !received < total then
               match Vlink.Vl.await (Vlink.Vl.post_read cvl buf) with
               | Vlink.Vl.Done n ->
                 received := !received + n;
                 rd ()
               | Vlink.Vl.Eof | Vlink.Vl.Again -> ()
               | Vlink.Vl.Error m -> failwith ("read: " ^ m)
           in
           rd ();
           t_end := Padico.now grid));
    Padico.run grid;
    let st = Resilient.stats conn in
    if !received < total then
      Printf.printf "TRANSFER INCOMPLETE: %d / %d bytes echoed\n" !received
        total
    else begin
      let dt = !t_end - !t_start in
      Printf.printf "echoed     : %d MB round-trip in %.3f ms virtual\n"
        mbytes (float_of_int dt /. 1e6);
      Printf.printf "goodput    : %.2f MB/s\n"
        (float_of_int (2 * total) /. (float_of_int dt /. 1e9) /. 1e6)
    end;
    Printf.printf "faults     : %d injected (%d still pending)\n"
      (Padico_fault.Inject.fired inj) (Padico_fault.Inject.pending inj);
    Printf.printf "driver     : %s\n" st.Resilient.driver;
    Printf.printf "switches   : %d\n" st.Resilient.switches;
    Printf.printf "retries    : %d\n" st.Resilient.retries;
    Printf.printf "downtime   : %.3f ms virtual\n"
      (float_of_int st.Resilient.downtime_ns /. 1e6);
    match out with
    | None -> ()
    | Some file ->
      Padico_obs.Trace.disable ();
      Padico_obs.Export_chrome.write_file file;
      Printf.printf "trace      : %d records -> %s\n"
        (Padico_obs.Trace.length ()) file
  in
  Cmd.v
    (Cmd.info "fault"
       ~doc:"Replay a fault plan against a resilient transfer on a SAN+LAN \
             pair; print failover statistics (switches, retries, downtime).")
    Term.(const run $ plan_arg $ expr_arg $ mbytes_arg $ chunk_arg $ seed_arg
          $ out_arg)


(* ---------- check ---------- *)

let check_cmd =
  let seeds_arg =
    Arg.(value & opt int 10
         & info [ "seeds" ] ~docv:"N"
           ~doc:"Random schedule permutations per case, on top of the \
                 fifo/lifo/starve policies (seeds 0..N-1).")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"TOKEN"
           ~doc:"Replay one failing run from its $(b,PCHK:v1:...) token \
                 instead of exploring.")
  in
  let plan_arg =
    Arg.(value & opt (some file) None
         & info [ "plan" ] ~docv:"FILE"
           ~doc:"Fault plan applied to every case's grid (and digested \
                 into failure tokens).")
  in
  let case_arg =
    Arg.(value & opt_all string []
         & info [ "case" ] ~docv:"NAME"
           ~doc:"Restrict to a case (repeatable): exact name \
                 ($(b,madio/no-loss)) or fixture prefix ($(b,madio/)).")
  in
  let demo_arg =
    Arg.(value & flag
         & info [ "demo-bug" ]
           ~doc:"Also run $(b,demo/ordering), a deliberately planted \
                 register-after-dispatch bug that FIFO masks — \
                 demonstrates what exploration catches.")
  in
  let shrink_arg =
    Arg.(value & flag
         & info [ "shrink" ]
           ~doc:"Greedily minimise each failure's fault plan and policy \
                 before reporting.")
  in
  let chaos_arg =
    Arg.(value & opt int 0
         & info [ "chaos" ] ~docv:"N"
           ~doc:"Chaos sweep: run the $(b,coll-chaos/) cases once per \
                 generated fault plan (seeds 0..N-1; crashes, outages, \
                 loss bursts, partitions), each under every schedule \
                 policy. Failures dump a replayable \
                 $(b,chaos-seed-K.plan) next to the token.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"With $(b,--replay): write a Chrome trace-event JSON of \
                 the replayed run.")
  in
  let pp_policy p = Engine.Sim.policy_to_string p in
  let load_plan = function
    | None -> None
    | Some f -> (
        match Padico_fault.Plan.parse_file f with
        | Ok p -> Some p
        | Error msg ->
          prerr_endline ("fault plan: " ^ msg);
          exit 2)
  in
  let run seeds replay plan_file names demo shrink out chaos backend =
    let plan = load_plan plan_file in
    if chaos > 0 && backend = Padico.Sim then begin
      let policies = Padico_check.Explore.default_policies ~seeds in
      let names = if names = [] then None else Some names in
      let s =
        Padico_check.Explore.chaos ?names ~seeds:chaos ~policies ()
      in
      Printf.printf
        "chaos: %d generated plans (%d interleavings run)\n"
        s.Padico_check.Explore.plans_run
        s.Padico_check.Explore.chaos_interleavings;
      match s.Padico_check.Explore.chaos_failures with
      | [] ->
        print_endline "all chaos obligations hold under every schedule";
        exit 0
      | failures ->
        List.iter
          (fun cf ->
             let f = cf.Padico_check.Explore.failure in
             let plan_file =
               Printf.sprintf "chaos-seed-%d.plan"
                 cf.Padico_check.Explore.seed
             in
             let oc = open_out plan_file in
             let fmt = Format.formatter_of_out_channel oc in
             Padico_fault.Plan.pp fmt cf.Padico_check.Explore.plan;
             Format.pp_print_flush fmt ();
             close_out oc;
             Printf.printf
               "FAIL %s [%s] (chaos seed %d)\n  %s\n  replay: padico_cli \
                check --replay '%s' --plan %s\n"
               f.Padico_check.Explore.case
               (pp_policy f.Padico_check.Explore.policy)
               cf.Padico_check.Explore.seed f.Padico_check.Explore.message
               f.Padico_check.Explore.token plan_file)
          failures;
        exit 1
    end;
    if backend = Padico.Host then begin
      (* Real sockets: the OS supplies the schedule, so exploration's
         policies and replay tokens do not apply — run the host subset
         once, sequentially. *)
      let cases = Padico_check.Conform.host_cases () in
      let cases =
        match names with
        | [] -> cases
        | names ->
          List.filter
            (fun c ->
               List.exists
                 (fun n ->
                    n = c.Padico_check.Conform.case_name
                    || (String.length n > 0
                        && n.[String.length n - 1] = '/'
                        && String.length c.Padico_check.Conform.case_name
                           >= String.length n
                        && String.sub c.Padico_check.Conform.case_name 0
                             (String.length n)
                           = n))
                 names)
            cases
      in
      let failures = ref 0 in
      List.iter
        (fun c ->
           match c.Padico_check.Conform.run ~plan Engine.Sim.Fifo with
           | () -> Printf.printf "PASS %s\n" c.Padico_check.Conform.case_name
           | exception Padico_check.Conform.Failed m ->
             incr failures;
             Printf.printf "FAIL %s\n  %s\n" c.Padico_check.Conform.case_name
               m)
        cases;
      Printf.printf "host conformance: %d cases, %d failures\n"
        (List.length cases) !failures;
      exit (if !failures > 0 then 1 else 0)
    end;
    match replay with
    | Some token ->
      if out <> None then begin
        Padico_obs.Metrics.reset ();
        Padico_obs.Trace.enable ()
      end;
      let outcome = Padico_check.Explore.replay ?plan token in
      (match out with
       | None -> ()
       | Some file ->
         Padico_obs.Trace.disable ();
         Padico_obs.Export_chrome.write_file file;
         Printf.printf "trace: %d records -> %s\n"
           (Padico_obs.Trace.length ()) file);
      (match outcome with
       | Error msg ->
         prerr_endline msg;
         exit 2
       | Ok None ->
         Printf.printf "PASS %s (failure did not reproduce)\n" token;
         exit 1
       | Ok (Some f) ->
         Printf.printf "FAIL %s\n  %s\n" f.Padico_check.Explore.token
           f.Padico_check.Explore.message)
    | None ->
      let policies = Padico_check.Explore.default_policies ~seeds in
      let names = if names = [] then None else Some names in
      let summary =
        Padico_check.Explore.explore ?plan ~demo ?names ~policies ()
      in
      Printf.printf
        "conformance: %d cases x %d policies (%d interleavings run)\n"
        summary.Padico_check.Explore.cases_run (List.length policies)
        summary.Padico_check.Explore.interleavings;
      (match summary.Padico_check.Explore.failures with
       | [] -> print_endline "all obligations hold under every schedule"
       | failures ->
         List.iter
           (fun f ->
              let f =
                if not shrink then f
                else begin
                  let plan', policy', token' =
                    Padico_check.Explore.shrink ?plan f
                  in
                  Printf.printf
                    "shrunk %s: %d plan events, policy %s\n"
                    f.Padico_check.Explore.case
                    (match plan' with
                     | None -> 0
                     | Some p -> List.length p)
                    (pp_policy policy');
                  { f with Padico_check.Explore.token = token';
                    policy = policy' }
                end
              in
              Printf.printf "FAIL %s [%s]\n  %s\n  replay: padico_cli \
                             check --replay '%s'%s\n"
                f.Padico_check.Explore.case
                (pp_policy f.Padico_check.Explore.policy)
                f.Padico_check.Explore.message
                f.Padico_check.Explore.token
                (* The shrinker may have stripped the plan entirely: only
                   point at the plan file while the token still digests
                   one, or the replay's digest guard would reject it. *)
                (match plan_file with
                 | Some file
                   when not
                          (String.length f.Padico_check.Explore.token >= 2
                           && String.sub f.Padico_check.Explore.token
                                (String.length f.Padico_check.Explore.token
                                 - 2)
                                2
                              = ":-") ->
                   " --plan " ^ file
                 | Some _ | None -> ""))
           failures;
         exit 1)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the adapter conformance kit under schedule exploration: \
             every VLink/Circuit obligation against every adapter, under \
             fifo/lifo/starve plus N seeded random same-timestamp \
             permutations. Failures print a replay token.")
    Term.(const run $ seeds_arg $ replay_arg $ plan_arg $ case_arg
          $ demo_arg $ shrink_arg $ out_arg $ chaos_arg $ backend_arg)

(* ---------- flow ---------- *)

let flow_cmd =
  let mismatch_arg =
    Arg.(value & opt int 100
         & info [ "mismatch" ] ~docv:"N"
           ~doc:"Producer/consumer rate mismatch: the consumer drains N \
                 times slower than the SAN can deliver.")
  in
  let window_arg =
    Arg.(value & opt int 131072
         & info [ "credit-window" ] ~docv:"BYTES"
           ~doc:"MadIO per-flow credit window; 0 disables credits.")
  in
  let rx_high_arg =
    Arg.(value & opt int 1048576
         & info [ "rx-high" ] ~docv:"BYTES"
           ~doc:"Resilient receive-queue high watermark.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed.")
  in
  let budget_arg =
    Arg.(value & flag
         & info [ "budget" ]
           ~doc:"Print the per-connection byte-budget report after the run: \
                 live connections, resident buffer bytes and reaped \
                 connections per node (the conn.count and \
                 conn.bytes_resident gauges).")
  in
  let run mbytes chunk mismatch window rx_high seed budget =
    Padico_obs.Metrics.reset ();
    Padico_obs.Trace.enable ();
    let grid = Padico.create ~seed () in
    let a = Padico.add_node grid "a" in
    let b = Padico.add_node grid "b" in
    let san =
      Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san" [ a; b ]
    in
    ignore (Padico.add_segment grid Simnet.Presets.ethernet100 ~name:"lan"
              [ a; b ]);
    if window > 0 then begin
      Netaccess.Madio.set_credit_window (Padico.madio grid a san) window;
      Netaccess.Madio.set_credit_window (Padico.madio grid b san) window
    end;
    let config =
      { Resilient.default_config with
        Resilient.rx_high; rx_low = rx_high / 4 }
    in
    let total = mbytes * 1_000_000 in
    (* Consumer pace: chunk bytes per wakeup, [mismatch] times slower than
       Myrinet-2000's ~250 MB/s. *)
    let delay_ns =
      int_of_float (float_of_int (chunk * mismatch) /. 250e6 *. 1e9)
    in
    Resilient.listen ~config grid b ~port:9100 (fun vl ->
        ignore
          (Padico.spawn grid b ~name:"producer" (fun () ->
               let sent = ref 0 in
               while !sent < total do
                 let n = min chunk (total - !sent) in
                 match
                   Personalities.Vio.try_write vl (Engine.Bytebuf.create n)
                 with
                 | `Ok k -> sent := !sent + k
                 | `Again -> Personalities.Vio.wait_writable vl
               done)));
    let conn = Resilient.connect ~config grid ~src:a ~dst:b ~port:9100 in
    let cvl = Resilient.vl conn in
    let t0 = ref 0 and t1 = ref 0 in
    ignore
      (Padico.spawn grid a ~name:"consumer" (fun () ->
           (match Vlink.Vl.await_connected cvl with
            | Ok () -> ()
            | Error m -> failwith ("connect: " ^ m));
           t0 := Padico.now grid;
           let buf = Engine.Bytebuf.create chunk in
           let received = ref 0 in
           while !received < total do
             (match Vlink.Vl.await (Vlink.Vl.post_read cvl buf) with
              | Vlink.Vl.Done n -> received := !received + n
              | Vlink.Vl.Eof | Vlink.Vl.Again -> failwith "premature eof"
              | Vlink.Vl.Error m -> failwith ("read: " ^ m));
             if !received < total then
               Engine.Proc.sleep (Simnet.Node.sim a) delay_ns
           done;
           t1 := Padico.now grid));
    Padico.run grid;
    Padico_obs.Trace.disable ();
    let st = Resilient.stats conn in
    let dt = !t1 - !t0 in
    Printf.printf "transferred  : %d MB in %.3f ms virtual (%.2f MB/s)\n"
      mbytes (float_of_int dt /. 1e6)
      (float_of_int total /. (float_of_int dt /. 1e9) /. 1e6);
    Printf.printf "rx peak      : %d bytes (high watermark %d)\n"
      st.Resilient.rx_peak rx_high;
    Printf.printf "tx peak      : %d bytes (window %d)\n" st.Resilient.tx_peak
      config.Resilient.tx_window;
    let mio_b = Padico.madio grid b san in
    Printf.printf "credit       : window %d, stalls %d, credit-only msgs %d\n"
      (Netaccess.Madio.credit_window mio_b)
      (Netaccess.Madio.credit_stalls mio_b)
      (Netaccess.Madio.credit_messages mio_b);
    List.iter
      (fun (node, name) ->
         let core = Netaccess.Na_core.get node in
         List.iter
           (fun kind ->
              let kname =
                match kind with
                | Netaccess.Na_core.Madio_work -> "madio"
                | Netaccess.Na_core.Sysio_work -> "sysio"
              in
              Printf.printf
                "dispatch %s/%-5s: depth peak %d, shed %d\n"
                name kname
                (Netaccess.Na_core.queue_peak core kind)
                (Netaccess.Na_core.shed_count core kind))
           [ Netaccess.Na_core.Madio_work; Netaccess.Na_core.Sysio_work ])
      [ (a, "a"); (b, "b") ];
    (* Per-place flow.* event counts out of the trace ring. *)
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun r ->
         match r.Padico_obs.Trace.ev with
         | Padico_obs.Event.Flow { action; place; _ } ->
           let key = (r.Padico_obs.Trace.node, place, action) in
           Hashtbl.replace tbl key
             (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
         | _ -> ())
      (Padico_obs.Trace.records ());
    let rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort compare
    in
    if rows = [] then print_endline "no flow.* events (no backpressure hit)"
    else begin
      print_endline "backpressure events:";
      List.iter
        (fun ((node, place, action), n) ->
           Printf.printf "  %-4s %-16s %-14s %6d\n" node place action n)
        rows
    end;
    if budget then begin
      print_endline "per-connection byte budget:";
      Printf.printf
        "  idle-connection floor: %d bytes (retained heap bound, tested)\n"
        Drivers.Tcp.conn_overhead_bytes;
      List.iter
        (fun (node, name) ->
           let sio = Netaccess.Sysio.get node in
           let conns = Netaccess.Sysio.conn_count sio in
           let resident = Netaccess.Sysio.bytes_resident sio in
           let per_conn =
             if conns = 0 then 0.0
             else float_of_int resident /. float_of_int conns
           in
           Printf.printf
             "  %-4s conns %4d  resident %8d B  (%.0f B/conn)  reaped %d\n"
             name conns resident per_conn
             (Netaccess.Sysio.conns_reaped sio))
        [ (a, "a"); (b, "b") ]
    end
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:"Run a fast-producer/slow-consumer transfer on a SAN+LAN pair \
             with credit flow control and watermarks; print per-link \
             backpressure statistics (queue peaks, credits, flow events).")
    Term.(const run $ mbytes_arg $ chunk_arg $ mismatch_arg $ window_arg
          $ rx_high_arg $ seed_arg $ budget_arg)

(* ---------- sched ---------- *)

let sched_cmd =
  let iters_arg =
    Arg.(value & opt int 300
         & info [ "iters" ] ~docv:"N" ~doc:"MadIO ping-pong round trips.")
  in
  let burst_arg =
    Arg.(value & opt int 2000
         & info [ "burst" ] ~docv:"N"
           ~doc:"Small messages (64 B) in the one-way burst phase.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed.")
  in
  let run iters burst seed =
    Engine.Bytebuf.Pool.reset ();
    let grid = Padico.create ~seed () in
    let a = Padico.add_node grid "a" in
    let b = Padico.add_node grid "b" in
    let san =
      Padico.add_segment grid Simnet.Presets.myrinet2000 ~name:"san" [ a; b ]
    in
    let ma = Padico.madio grid a san and mb = Padico.madio grid b san in
    let msg n seed =
      let m = Engine.Bytebuf.create n in
      Engine.Bytebuf.fill_pattern m ~seed;
      m
    in
    (* Latency phase: ping-pong on lchannel 1 (each message finds its flow
       idle, so none waits to coalesce). *)
    let la = Netaccess.Madio.open_lchannel ma ~id:1 in
    let lb = Netaccess.Madio.open_lchannel mb ~id:1 in
    let rounds = ref 0 and t_pp = ref 0 in
    Netaccess.Madio.set_recv lb (fun ~src buf ->
        Netaccess.Madio.send lb ~dst:src buf);
    Netaccess.Madio.set_recv la (fun ~src:_ _ ->
        incr rounds;
        if !rounds < iters then
          Netaccess.Madio.send la ~dst:(Simnet.Node.id b) (msg 64 !rounds)
        else t_pp := Padico.now grid);
    Netaccess.Madio.send la ~dst:(Simnet.Node.id b) (msg 64 0);
    (* Throughput phase: one-way 64 B burst on lchannel 2 (coalesces). *)
    let l2a = Netaccess.Madio.open_lchannel ma ~id:2 in
    let l2b = Netaccess.Madio.open_lchannel mb ~id:2 in
    let got = ref 0 and t0 = ref 0 and t1 = ref 0 in
    Netaccess.Madio.set_recv l2b (fun ~src:_ _ ->
        incr got;
        if !got = burst then t1 := Padico.now grid);
    ignore
      (Padico.spawn grid a ~name:"burst-src" (fun () ->
           t0 := Padico.now grid;
           for i = 1 to burst do
             Netaccess.Madio.send l2a ~dst:(Simnet.Node.id b) (msg 64 i)
           done));
    Padico.run grid;
    let q = Netaccess.Na_core.(quanta (get a)) in
    Printf.printf "quanta       : madio:sysio = %d:%d\n"
      q.Netaccess.Na_core.madio_quantum q.Netaccess.Na_core.sysio_quantum;
    Printf.printf "ping-pong    : %d round trips, %.1f us mean round trip\n"
      !rounds
      (float_of_int !t_pp /. float_of_int (max !rounds 1) /. 1e3);
    Printf.printf "burst        : %d x 64 B in %.3f ms virtual (%.2f Mmsg/s)\n"
      !got
      (float_of_int (!t1 - !t0) /. 1e6)
      (float_of_int !got /. (float_of_int (max (!t1 - !t0) 1) *. 1e-9) /. 1e6);
    List.iter
      (fun (node, name) ->
         let core = Netaccess.Na_core.get node in
         List.iter
           (fun (kind, kname) ->
              Printf.printf
                "dispatch %s/%-5s: %6d dispatched, depth peak %3d, \
                 mean wait %8.1f ns\n"
                name kname
                (Netaccess.Na_core.dispatched core kind)
                (Netaccess.Na_core.queue_peak core kind)
                (Netaccess.Na_core.mean_wait_ns core kind))
           [ (Netaccess.Na_core.Madio_work, "madio");
             (Netaccess.Na_core.Sysio_work, "sysio") ])
      [ (a, "a"); (b, "b") ];
    Printf.printf
      "coalescing   : %d messages batched, %d batches, %d packets saved\n"
      (Netaccess.Madio.messages_batched ma)
      (Netaccess.Madio.batches_sent ma)
      (Netaccess.Madio.packets_saved ma);
    Printf.printf "header pool  : %d hits, %d misses\n"
      (Engine.Bytebuf.Pool.pool_hits ())
      (Engine.Bytebuf.Pool.pool_misses ())
  in
  Cmd.v
    (Cmd.info "sched"
       ~doc:"Run a latency ping-pong plus a small-message burst on a \
             Myrinet pair through the NetAccess dispatcher; print \
             per-subsystem dispatch statistics and coalescing counters.")
    Term.(const run $ iters_arg $ burst_arg $ seed_arg)

(* ---------- collect ---------- *)

let collect_cmd =
  let clusters_arg =
    Arg.(value & opt int 4
         & info [ "clusters" ] ~docv:"N" ~doc:"SAN islands in the grid.")
  in
  let nodes_arg =
    Arg.(value & opt int 8
         & info [ "nodes" ] ~docv:"N" ~doc:"Nodes per island.")
  in
  let size_arg =
    Arg.(value & opt int 4096
         & info [ "size" ] ~docv:"BYTES"
           ~doc:"Payload bytes (per rank for gather/scatter).")
  in
  let op_arg =
    Arg.(value
         & opt (enum [ ("all", `All); ("barrier", `Barrier);
                       ("bcast", `Bcast); ("reduce", `Reduce);
                       ("allreduce", `Allreduce); ("gather", `Gather);
                       ("scatter", `Scatter) ])
             `All
         & info [ "op" ] ~docv:"OP" ~doc:"Collective to run (default all).")
  in
  let strategy_arg =
    Arg.(value
         & opt (enum [ ("both", `Both); ("flat", `Flat);
                       ("multilevel", `Multilevel) ])
             `Both
         & info [ "strategy" ] ~docv:"S"
           ~doc:"$(b,flat) (rank-0 star), $(b,multilevel) (topology-aware \
                 trees) or $(b,both).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Seed.")
  in
  let run clusters nodes size op strat seed =
    let module Group = Collectives.Group in
    let module Gridgen = Scenario.Gridgen in
    let module Bb = Engine.Bytebuf in
    let ops =
      List.filter
        (fun (name, _) ->
           match op with
           | `All -> true
           | `Barrier -> name = "barrier"
           | `Bcast -> name = "bcast"
           | `Reduce -> name = "reduce"
           | `Allreduce -> name = "allreduce"
           | `Gather -> name = "gather"
           | `Scatter -> name = "scatter")
        [ ("barrier", `B); ("bcast", `Bc); ("reduce", `R);
          ("allreduce", `A); ("gather", `G); ("scatter", `S) ]
    in
    let strategies =
      match strat with
      | `Both -> [ (Group.Flat, "flat"); (Group.Multilevel, "multilevel") ]
      | `Flat -> [ (Group.Flat, "flat") ]
      | `Multilevel -> [ (Group.Multilevel, "multilevel") ]
    in
    let pattern n s =
      let b = Bb.create n in
      Bb.fill_pattern b ~seed:s;
      b
    in
    List.iter
      (fun (strategy, sname) ->
         let g = Gridgen.generate ~seed ~clusters ~nodes_per_cluster:nodes () in
         let members = Array.of_list g.Gridgen.nodes in
         let n = Array.length members in
         let groups =
           Group.create ~strategy g.Gridgen.grid ~name:("cli-" ^ sname)
             g.Gridgen.nodes
         in
         let db = Group.netdb groups.(0) in
         Printf.printf
           "\n%s: %d ranks, %d clusters (%s intra, wan across)\n" sname n
           (Selector.Netdb.cluster_count db)
           (Selector.Netdb.level_name (Selector.Netdb.cluster_level db 0));
         Printf.printf "%-10s %9s %12s %12s\n" "op" "wan msgs" "wan bytes"
           "time (us)";
         Padico_obs.Trace.enable ();
         List.iter
           (fun (op_name, tag) ->
              let m0 = Group.wan_messages groups.(0) in
              let b0 = Group.wan_bytes groups.(0) in
              let t0 = Padico.now g.Gridgen.grid in
              (* Completion = the last rank finishing, not simulator
                 quiescence (stale transport timers run long past the op). *)
              let t1 = ref t0 in
              Array.iteri
                (fun r node ->
                   ignore
                     (Padico.spawn g.Gridgen.grid node
                        ~name:(op_name ^ "-" ^ string_of_int r)
                        (fun () ->
                           let gm = groups.(r) in
                           (match tag with
                           | `B -> Group.barrier gm
                           | `Bc ->
                             ignore
                               (Group.bcast gm ~root:0
                                  (if r = 0 then pattern size 7
                                   else Bb.create 0))
                           | `R ->
                             ignore
                               (Group.reduce gm ~root:0 ~op:Group.Sum
                                  (pattern size (r + 1)))
                           | `A ->
                             ignore
                               (Group.allreduce gm ~op:Group.Bxor
                                  (pattern size (r + 1)))
                           | `G ->
                             ignore (Group.gather gm ~root:0
                                       (pattern size (r + 1)))
                           | `S ->
                             ignore
                               (Group.scatter gm ~root:0
                                  (if r = 0 then
                                     Array.init n (fun i ->
                                         pattern size (i + 1))
                                   else [||])));
                           t1 := max !t1 (Padico.now g.Gridgen.grid))))
                members;
              Padico.run g.Gridgen.grid;
              Printf.printf "%-10s %9d %12d %12.1f\n" op_name
                (Group.wan_messages groups.(0) - m0)
                (Group.wan_bytes groups.(0) - b0)
                (float_of_int (!t1 - t0) /. 1e3))
           ops;
         Padico_obs.Trace.disable ();
         (* Stage spans out of the trace ring: mean queue-to-completion time
            of each (op, stage, level) across ranks. *)
         let tbl = Hashtbl.create 32 in
         List.iter
           (fun r ->
              match r.Padico_obs.Trace.ev with
              | Padico_obs.Event.Coll_stage { op; stage; level; _ }
                when r.Padico_obs.Trace.dur >= 0 ->
                let key = (op, stage, level) in
                let n, tot =
                  Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key)
                in
                Hashtbl.replace tbl key (n + 1, tot + r.Padico_obs.Trace.dur)
              | _ -> ())
           (Padico_obs.Trace.records ());
         let rows =
           Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
           |> List.sort compare
         in
         if rows <> [] then begin
           Printf.printf "stage spans (mean per rank):\n";
           List.iter
             (fun ((op, stage, level), (cnt, tot)) ->
                Printf.printf "  %-10s %-5s %-5s %6d spans %10.1f us\n" op
                  stage level cnt
                  (float_of_int tot /. float_of_int cnt /. 1e3))
             rows
         end)
      strategies
  in
  Cmd.v
    (Cmd.info "collect"
       ~doc:"Run group collectives (barrier/bcast/reduce/allreduce/gather/\
             scatter) on a multi-cluster grid under the flat and \
             topology-aware multilevel strategies; print WAN crossings, \
             bytes and completion times, plus per-stage trace spans.")
    Term.(const run $ clusters_arg $ nodes_arg $ size_arg $ op_arg
          $ strategy_arg $ seed_arg)

(* ---------- detect ---------- *)

let detect_cmd =
  let clusters_arg =
    Arg.(value & opt int 2
         & info [ "clusters" ] ~docv:"N" ~doc:"SAN islands in the grid.")
  in
  let nodes_arg =
    Arg.(value & opt int 4
         & info [ "nodes" ] ~docv:"N" ~doc:"Nodes per island.")
  in
  let victim_arg =
    Arg.(value & opt int 3
         & info [ "victim" ] ~docv:"RANK"
           ~doc:"Rank whose node crashes (must not be 0: rank 0 roots the \
                 probe collectives).")
  in
  let crash_arg =
    Arg.(value & opt int 20
         & info [ "crash-at" ] ~docv:"MS"
           ~doc:"Crash time on the virtual clock, in milliseconds.")
  in
  let interval_arg =
    Arg.(value & opt int 1
         & info [ "interval" ] ~docv:"MS" ~doc:"Heartbeat interval.")
  in
  let run clusters nodes victim crash_ms interval_ms =
    let module Group = Collectives.Group in
    let module Gridgen = Scenario.Gridgen in
    let module Bb = Engine.Bytebuf in
    let module Time = Engine.Time in
    let module Proc = Engine.Proc in
    let module Node = Simnet.Node in
    let module Plan = Padico_fault.Plan in
    let n = clusters * nodes in
    if victim <= 0 || victim >= n then begin
      Printf.eprintf "victim rank must be in 1..%d\n" (n - 1);
      exit 2
    end;
    let g = Gridgen.generate ~clusters ~nodes_per_cluster:nodes () in
    let members = Array.of_list g.Gridgen.nodes in
    let heal =
      { Detect.default_config with
        Detect.interval_ns = Time.ms interval_ms }
    in
    let groups =
      Group.create ~deadline_ns:(Time.ms 400) ~heal g.Gridgen.grid
        ~name:"cli-detect" g.Gridgen.nodes
    in
    let crash_at = Time.ms crash_ms in
    let ops_at = crash_at + Time.ms 1 in
    Padico_obs.Trace.enable ~capacity:262_144 ();
    ignore
      (Padico_fault.Inject.apply
         (Padico.net g.Gridgen.grid)
         [ { Plan.at_ns = crash_at;
             action = Plan.Node_crash (Node.name members.(victim)) } ]);
    let payload = 1024 in
    let pat seed =
      let b = Bb.create payload in
      Bb.fill_pattern b ~seed;
      b
    in
    Array.iteri
      (fun r node ->
         ignore
           (Padico.spawn g.Gridgen.grid node
              ~name:(Printf.sprintf "detect-%d" r)
              (fun () ->
                 let gm = groups.(r) in
                 (try ignore (Group.allreduce gm ~op:Group.Bxor (pat (r + 1)))
                  with Group.Failed _ -> ());
                 if r <> victim then begin
                   let now = Padico.now g.Gridgen.grid in
                   if now < ops_at then
                     Proc.sleep_on (Node.clock node) (ops_at - now);
                   (* In flight across the eviction, then one epoch-1
                      steady-state round. *)
                   ignore (Group.allreduce gm ~op:Group.Bxor (pat (r + 1)));
                   ignore (Group.allreduce gm ~op:Group.Bxor (pat (r + 1)))
                 end)))
      members;
    Padico.run g.Gridgen.grid ~until:(crash_at + Time.ms 400);
    Array.iter Group.retire groups;
    Padico_obs.Trace.disable ();
    Printf.printf
      "detector timeline (%d ranks, victim %d crashes at %d ms):\n" n victim
      crash_ms;
    List.iter
      (fun r ->
         match r.Padico_obs.Trace.ev with
         | Padico_obs.Event.Detect { action; peer; phi_milli } ->
           Printf.printf "  %10.3f ms  %-10s %-14s peer %-4d phi %.2f\n"
             (float_of_int r.Padico_obs.Trace.ts /. 1e6)
             r.Padico_obs.Trace.node ("detect." ^ action) peer
             (float_of_int phi_milli /. 1e3)
         | Padico_obs.Event.Member { group = _; action; rank; epoch } ->
           Printf.printf "  %10.3f ms  %-10s %-14s rank %-4d epoch %d\n"
             (float_of_int r.Padico_obs.Trace.ts /. 1e6)
             r.Padico_obs.Trace.node ("member." ^ action) rank epoch
         | _ -> ())
      (Padico_obs.Trace.records ());
    let gm0 = groups.(0) in
    Printf.printf
      "\nrank 0 membership: epoch %d, %d/%d live, dead [%s], %d op \
       restart(s)\n"
      (Group.epoch gm0) (Group.live_count gm0) n
      (String.concat ";" (List.map string_of_int (Group.dead_ranks gm0)))
      (Group.restarts gm0);
    (match Group.detector gm0 with
     | Some det ->
       let s = Detect.stats det in
       Printf.printf
         "rank 0 detector:   %d hb sent, %d suspect(s), %d refute(s), %d \
          confirm(s), %d peer(s) monitored\n"
         s.Detect.hb_sent s.Detect.suspects s.Detect.refutes
         s.Detect.confirms s.Detect.monitored
     | None -> ());
    Array.iteri
      (fun r gm ->
         if r <> victim && Group.poisoned gm <> None then begin
           Printf.eprintf "rank %d poisoned: %s\n" r
             (Option.value (Group.poisoned gm) ~default:"");
           exit 1
         end)
      groups
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:"Crash a member of a self-healing group and watch the failure \
             detector work: the suspicion/confirmation timeline \
             (detect.* / member.* trace events), the eviction epoch, and \
             the detector's counters.")
    Term.(const run $ clusters_arg $ nodes_arg $ victim_arg $ crash_arg
          $ interval_arg)

(* ---------- hostio ---------- *)

let hostio_cmd =
  let timers_arg =
    Arg.(value & opt int 100
         & info [ "timers" ] ~docv:"N"
           ~doc:"Timers to arm (staggered sub-millisecond deadlines).")
  in
  let kbytes_arg =
    Arg.(value & opt int 256
         & info [ "kbytes" ] ~docv:"KB"
           ~doc:"Payload echoed over a socketpair through the reactor.")
  in
  let run timers kbytes =
    let module Loop = Hostio.Loop in
    let module Stream = Hostio.Stream in
    let module Bb = Engine.Bytebuf in
    let loop = Loop.create () in
    (* Timer workload: N staggered deadlines, every 10th cancelled. *)
    let fired = ref 0 in
    for i = 1 to timers do
      let tm =
        Engine.Clock.arm (Loop.clock loop)
          (i * 5_000) (fun () -> incr fired)
      in
      if i mod 10 = 0 then Engine.Clock.cancel tm
    done;
    (* Socketpair echo: stream [kbytes] through the reactor and back. *)
    let a, b = Stream.pair loop in
    let total = kbytes * 1024 in
    let chunk = Bb.create 8_192 in
    Bb.fill_pattern chunk ~seed:11;
    let sent = ref 0 and echoed = ref 0 and received = ref 0 in
    let rec feed () =
      if !sent < total then begin
        let n = Stream.write a (Bb.sub chunk 0 (min 8_192 (total - !sent))) in
        sent := !sent + n;
        if n > 0 then feed ()
      end
    in
    Stream.set_event_cb b (function
      | Stream.Readable ->
        let rec drain () =
          match Stream.read b ~max:8_192 with
          | Some buf ->
            echoed := !echoed + Bb.length buf;
            ignore (Stream.write b buf);
            drain ()
          | None -> ()
        in
        drain ()
      | Stream.Peer_closed -> Stream.close b
      | _ -> ());
    Stream.set_event_cb a (function
      | Stream.Readable ->
        let rec drain () =
          match Stream.read a ~max:8_192 with
          | Some buf ->
            received := !received + Bb.length buf;
            if !received >= total then Stream.close a else drain ()
          | None -> ()
        in
        drain ()
      | Stream.Writable -> feed ()
      | _ -> ());
    feed ();
    let t0 = Loop.now_ns loop in
    Loop.run loop;
    let dt = Loop.now_ns loop - t0 in
    Printf.printf "hostio reactor: %d iterations in %.2f ms\n"
      (Loop.iterations loop) (float_of_int dt /. 1e6);
    Printf.printf "  timers     : %d armed, %d fired, %d cancelled, %d live\n"
      timers !fired (timers / 10) (Loop.live_timers loop);
    Printf.printf "  fd events  : %d delivered on %d watched fds (%d active)\n"
      (Loop.fd_events loop) (Loop.watched_fds loop) (Loop.active_fds loop);
    Printf.printf "  echo       : %d KB sent, %d KB echoed back (%.1f MB/s \
                   round-trip)\n"
      (!sent / 1024) (!received / 1024)
      (if dt > 0 then
         Engine.Stats.bandwidth_mb_s ~bytes_transferred:(2 * !received)
           ~elapsed_ns:dt
       else 0.)
  in
  Cmd.v
    (Cmd.info "hostio"
       ~doc:"Exercise the real-OS reactor (timers + socketpair echo) and \
             report loop, fd and timer statistics.")
    Term.(const run $ timers_arg $ kbytes_arg)

let () =
  let doc = "PadicoTM-style grid communication framework (simulated)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "padico_cli" ~doc)
          [ registry_cmd; selector_cmd; ping_cmd; bandwidth_cmd; trace_cmd;
            fault_cmd; flow_cmd; check_cmd; sched_cmd; collect_cmd;
            detect_cmd; hostio_cmd ]))

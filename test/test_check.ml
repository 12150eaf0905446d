(* Padico_check (PR 4): replay tokens, schedule policies, the adapter
   conformance kit, schedule exploration + shrinking, regression tokens
   for the register-after-dispatch races the kit flushed out, the
   descriptive Proc error messages, and a decision-table property for
   Selector.choose over generated topologies. *)

module Sim = Engine.Sim
module Proc = Engine.Proc
module Time = Engine.Time
module Replay = Padico_check.Replay
module Conform = Padico_check.Conform
module Explore = Padico_check.Explore
module Plan = Padico_fault.Plan
module Prefs = Selector.Prefs
module Linkmodel = Simnet.Linkmodel

open Tutil

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---------- replay tokens ---------- *)

let all_policies =
  [ Sim.Fifo; Sim.Lifo; Sim.Starve_oldest; Sim.Random 0; Sim.Random 173 ]

let test_token_round_trip () =
  List.iter
    (fun policy ->
       let t = { Replay.case = "sysio/eof"; policy; plan_digest = "-" } in
       let s = Replay.to_string t in
       match Replay.of_string s with
       | Ok t' ->
         check_string "case survives" t.Replay.case t'.Replay.case;
         check_bool "policy survives" true (t.Replay.policy = t'.Replay.policy);
         check_string "digest survives" t.Replay.plan_digest
           t'.Replay.plan_digest
       | Error e -> Alcotest.failf "%s does not parse back: %s" s e)
    all_policies

let test_token_rejects_malformed () =
  let bad =
    [ ""; "nonsense"; "PCHK:v2:sysio/eof:fifo:-"; "PCHK:v1:sysio/eof:fifo";
      "PCHK:v1:sysio/eof:random:-"; "PCHK:v1::fifo:-";
      "PCHK:v1:sysio/eof:warp:-" ]
  in
  List.iter
    (fun s ->
       match Replay.of_string s with
       | Ok _ -> Alcotest.failf "%S should not parse" s
       | Error _ -> ())
    bad

let parse_plan text =
  match Plan.parse text with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan %S: %s" text e

let test_plan_digest () =
  check_string "no plan digests to -" "-" (Replay.digest_plan None);
  let p1 = parse_plan "at 2ms link-down san\n" in
  let p2 = parse_plan "at 2ms  link-down   san\n" in
  let p3 = parse_plan "at 3ms link-down san\n" in
  check_string "digest is over parsed events, not spelling"
    (Replay.digest_plan (Some p1))
    (Replay.digest_plan (Some p2));
  check_bool "different plans, different digests" true
    (Replay.digest_plan (Some p1) <> Replay.digest_plan (Some p3));
  check_bool "a plan never digests to -" true
    (Replay.digest_plan (Some p1) <> "-")

(* ---------- schedule policies at the Sim level ---------- *)

(* Five events registered at the same timestamp: the policy decides their
   dispatch order, and nothing else about the run may change. *)
let dispatch_order policy =
  let sim = Sim.create () in
  Sim.set_policy sim policy;
  let order = ref [] in
  Sim.after sim 100 (fun () ->
      for i = 0 to 4 do
        Sim.after sim 0 (fun () -> order := i :: !order)
      done);
  Sim.run sim;
  List.rev !order

let test_policy_orders () =
  let fifo = dispatch_order Sim.Fifo in
  check_bool "fifo preserves registration order" true
    (fifo = [ 0; 1; 2; 3; 4 ]);
  check_bool "lifo reverses same-timestamp order" true
    (dispatch_order Sim.Lifo = [ 4; 3; 2; 1; 0 ]);
  List.iter
    (fun p ->
       let o = dispatch_order p in
       check_bool
         (Sim.policy_to_string p ^ " is a permutation")
         true
         (List.sort compare o = [ 0; 1; 2; 3; 4 ]);
       check_bool
         (Sim.policy_to_string p ^ " is deterministic")
         true
         (dispatch_order p = o))
    (Sim.Starve_oldest :: List.init 5 (fun i -> Sim.Random i));
  check_bool "starve-one does not reduce to fifo" true
    (dispatch_order Sim.Starve_oldest <> fifo);
  check_bool "some random seed deviates from fifo" true
    (List.exists
       (fun s -> dispatch_order (Sim.Random s) <> fifo)
       [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])

(* ---------- descriptive Proc errors ---------- *)

let test_suspend_outside_process () =
  match (Proc.suspend (fun (_ : unit -> unit) -> ()) : unit) with
  | () -> Alcotest.fail "suspend outside a process must raise"
  | exception Invalid_argument m ->
    check_bool "says where the rule was broken" true
      (contains m "outside a process")

let test_double_resume_message () =
  let sim = Sim.create () in
  let caught = ref None in
  let h =
    Proc.spawn sim ~name:"victim" (fun () ->
        Proc.suspend (fun resume ->
            Sim.after sim 10 (fun () ->
                resume ();
                try resume ()
                with Invalid_argument m -> caught := Some m)))
  in
  Sim.run sim;
  (match Proc.result h with
   | Some (Ok ()) -> ()
   | _ -> Alcotest.fail "victim should have finished");
  match !caught with
  | None -> Alcotest.fail "second resume must raise"
  | Some m ->
    check_bool "names the offence" true (contains m "resumed twice");
    check_bool "names the process" true (contains m "victim");
    check_bool "reports the process state" true (contains m "finished")

(* ---------- the conformance kit ---------- *)

let test_kit_green_under_fifo () =
  let s = Explore.explore ~policies:[ Sim.Fifo ] () in
  (match s.Explore.failures with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "%d obligation(s) violated; first: %s\n  %s"
       (List.length s.Explore.failures)
       f.Explore.token f.Explore.message);
  check_bool "kit covers >= 8 adapters" true (Conform.adapters_covered >= 8);
  check_bool "every adapter meets every obligation" true
    (s.Explore.cases_run >= Conform.adapters_covered * 5)

(* The failover e2e, through the kit: the resilient fixture's obligations
   must hold while the SAN carrier dies under the transfer — the transfer
   redials onto the LAN and the byte stream comes through intact. *)
let test_failover_through_kit () =
  let plan = parse_plan "at 50us link-down san\n" in
  let names = [ "resilient/no-loss"; "resilient/eof"; "resilient/close" ] in
  let s = Explore.explore ~plan ~names ~policies:[ Sim.Fifo ] () in
  check_int "all three cases selected" 3 s.Explore.cases_run;
  match s.Explore.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "failover e2e through the kit: %s\n  %s" f.Explore.token
      f.Explore.message

(* ---------- exploration, replay, shrinking ---------- *)

let find_demo_failure () =
  let s =
    Explore.explore ~demo:true ~names:[ "demo/" ]
      ~policies:(Explore.default_policies ~seeds:200)
      ()
  in
  check_int "one demo case" 1 s.Explore.cases_run;
  match s.Explore.failures with
  | [ f ] -> f
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_demo_bug_caught_within_seeds () =
  let f = find_demo_failure () in
  check_bool "fifo masks the planted bug" true (f.Explore.policy <> Sim.Fifo);
  check_bool "message names the race" true
    (contains f.Explore.message "before its handler was registered")

let test_replay_reproduces_deterministically () =
  let f = find_demo_failure () in
  match Explore.replay f.Explore.token with
  | Ok (Some f') ->
    check_string "same token" f.Explore.token f'.Explore.token;
    check_string "same message" f.Explore.message f'.Explore.message;
    (* And again: replay is a pure function of the token. *)
    (match Explore.replay f.Explore.token with
     | Ok (Some f'') -> check_string "stable" f'.Explore.token f''.Explore.token
     | _ -> Alcotest.fail "second replay diverged")
  | Ok None -> Alcotest.fail "token did not reproduce the failure"
  | Error e -> Alcotest.failf "replay: %s" e

let test_replay_guards () =
  (match Explore.replay "PCHK:v1:no-such/case:lifo:-" with
   | Error e -> check_bool "unknown case named" true (contains e "no-such/case")
   | Ok _ -> Alcotest.fail "unknown case must be an error");
  (* A token recorded without a plan refuses a supplied plan (and vice
     versa): the digest is the tamper seal. *)
  let plan = parse_plan "at 1ms link-down san\n" in
  match Explore.replay ~plan "PCHK:v1:demo/ordering:lifo:-" with
  | Error e -> check_bool "digest mismatch explained" true (contains e "digest")
  | Ok _ -> Alcotest.fail "plan digest mismatch must be an error"

let test_shrink_minimises () =
  (* The planted demo bug fails regardless of the fault plan, so every
     plan event is droppable: the shrinker must strip the plan entirely
     and re-digest the token to "-". *)
  let plan = parse_plan "at 1ms link-down san\nat 2ms link-up san\n" in
  let case =
    match
      List.find_opt
        (fun c -> c.Conform.case_name = "demo/ordering")
        (Conform.cases ~demo:true ())
    with
    | Some c -> c
    | None -> Alcotest.fail "demo case missing"
  in
  let f =
    match Explore.exec ~plan case Sim.Lifo with
    | Some f -> f
    | None -> Alcotest.fail "demo case should fail under lifo"
  in
  let shrunk_plan, policy, token = Explore.shrink ~plan f in
  check_bool "plan stripped" true (shrunk_plan = None);
  check_bool "policy stays simple" true (policy = Sim.Lifo);
  check_bool "token re-digested" true (contains token ":lifo:-");
  match Explore.replay token with
  | Ok (Some _) -> ()
  | _ -> Alcotest.fail "shrunk token must still reproduce"

(* ---------- regression: races fixed in this PR, pinned to tokens ------- *)

(* Each token is the coordinate under which the bug reproduced before its
   fix: replaying it must now pass. Keep these replayable — they are the
   cheapest proof the fixes hold under the exact interleaving that broke. *)
let race_regressions =
  [ (* tcp + vl_sysio: accept dispatched after the peer's FIN edge — the
       missed Peer_closed is now caught up at watch time. *)
    "PCHK:v1:sysio/eof:lifo:-";
    "PCHK:v1:sysio/close:starve:-";
    (* vl_pstream: member FIN parsed while the watch still pointed at the
       HELLO parser. *)
    "PCHK:v1:pstream/eof:lifo:-";
    (* madio: first message overtaking set_recv now parks in pending_rx. *)
    "PCHK:v1:madio/no-loss:lifo:-";
    "PCHK:v1:madio/connect:starve:-";
    (* circuit: delivery before set_recv now parks in pending_rx. *)
    "PCHK:v1:circuit-san/boundaries:lifo:-";
    (* vl_crypto / vl_adoc: close no longer guillotines posted frames,
       and inner Eof waits for the decode pipeline to drain. *)
    "PCHK:v1:crypto/close:lifo:-";
    "PCHK:v1:adoc/eof:lifo:-";
    (* resilient: a FIN arriving in the same flight as the carrier
       teardown it caused is still parsed on the dead link. *)
    "PCHK:v1:resilient/close:lifo:-" ]

let test_race_regressions () =
  List.iter
    (fun token ->
       match Explore.replay token with
       | Ok None -> ()
       | Ok (Some f) ->
         Alcotest.failf "regression resurfaced: %s\n  %s" token
           f.Explore.message
       | Error e -> Alcotest.failf "stale regression token %s: %s" token e)
    race_regressions

(* ---------- Selector.choose decision table ---------- *)

let seg_pool =
  [| ("san", Simnet.Presets.myrinet2000);
     ("sci", Simnet.Presets.sci);
     ("lan", Simnet.Presets.ethernet100);
     ("glan", Simnet.Presets.gigabit_lan);
     ("wan", Simnet.Presets.vthd);
     ("lossy", Simnet.Presets.transcontinental);
     ("modem", Simnet.Presets.modem) |]

(* One random topology + prefs per seed; check the published decision
   rules hold: loopback on self, SAN preference, VRP/pstream gating by
   class and prefs, adapter wrapping, and that down/excluded segments are
   never chosen. The oracle restates the decision table independently of
   the ranking, so a rule regression (not a ranking change) trips it. *)
let prop_selector_decision_table =
  QCheck.Test.make ~name:"decision table over random topologies" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
       let rng = Random.State.make [| seed |] in
       let net = Simnet.Net.create () in
       let a = Simnet.Net.add_node net "a" in
       let b = Simnet.Net.add_node net "b" in
       let nsegs = 1 + Random.State.int rng 3 in
       let segs =
         List.init nsegs (fun i ->
             let name, model =
               seg_pool.(Random.State.int rng (Array.length seg_pool))
             in
             Simnet.Net.add_segment net model
               ~name:(Printf.sprintf "%s%d" name i)
               [ a; b ])
       in
       List.iter
         (fun s ->
            if Random.State.int rng 4 = 0 then Simnet.Segment.set_down s true)
         segs;
       let exclude =
         List.filter (fun _ -> Random.State.int rng 4 = 0) segs
       in
       let rbool () = Random.State.bool rng in
       let prefs =
         { Prefs.default with
           Prefs.vrp_on_lossy = rbool (); pstream_on_wan = rbool ();
           adoc_on_slow = rbool (); cipher_untrusted = rbool ();
           vrp_tolerance = 0.01 *. float_of_int (Random.State.int rng 10);
           pstream_streams = 1 + Random.State.int rng 4 }
       in
       let src = a in
       let dst = if Random.State.int rng 8 = 0 then a else b in
       let usable =
         List.filter
           (fun s ->
              (not (Simnet.Segment.is_down s src))
              && not
                   (List.exists
                      (fun e -> Simnet.Segment.uid e = Simnet.Segment.uid s)
                      exclude))
           segs
       in
       let self = Simnet.Node.uid src = Simnet.Node.uid dst in
       match Selector.choose ~prefs ~exclude net ~src ~dst with
       | exception Failure _ ->
         (* Legal exactly when there is nothing to choose from. *)
         (not self) && usable = []
       | c when self ->
         c.Selector.driver = "loopback" && c.Selector.segment = None
       | c ->
         let seg =
           match c.Selector.segment with
           | Some s -> s
           | None -> QCheck.Test.fail_report "non-loopback without a segment"
         in
         let m = Simnet.Segment.model seg in
         let cls = m.Linkmodel.class_ in
         let chosen_usable =
           List.exists
             (fun s -> Simnet.Segment.uid s = Simnet.Segment.uid seg)
             usable
         in
         let san_usable =
           List.exists
             (fun s ->
                (Simnet.Segment.model s).Linkmodel.class_ = Linkmodel.San)
             usable
         in
         let driver_ok =
           match c.Selector.driver with
           | "madio" -> cls = Linkmodel.San
           | "vrp" ->
             (not san_usable) && cls = Linkmodel.Lossy_wan
             && prefs.Prefs.vrp_on_lossy
             && c.Selector.vrp_tolerance = prefs.Prefs.vrp_tolerance
           | "pstream" ->
             (not san_usable) && cls = Linkmodel.Wan
             && prefs.Prefs.pstream_on_wan
             && c.Selector.streams = prefs.Prefs.pstream_streams
           | "sysio" ->
             (not san_usable)
             && (not (cls = Linkmodel.Lossy_wan && prefs.Prefs.vrp_on_lossy))
             && not (cls = Linkmodel.Wan && prefs.Prefs.pstream_on_wan)
           | d -> QCheck.Test.fail_report ("unknown driver " ^ d)
         in
         (* SAN preference is unconditional: if a SAN is usable, it wins. *)
         let san_pref_ok = (not san_usable) || c.Selector.driver = "madio" in
         let wrapped = c.Selector.driver <> "madio" in
         let slow =
           m.Linkmodel.bandwidth_bps <= prefs.Prefs.adoc_threshold_bps
         in
         let has f = List.exists f c.Selector.filters in
         let adoc_ok =
           has (function Selector.Adoc _ -> true | Selector.Cipher _ -> false)
           = (wrapped && prefs.Prefs.adoc_on_slow && slow
              && c.Selector.driver <> "vrp")
         in
         let crypto_ok =
           has (function Selector.Cipher _ -> true | Selector.Adoc _ -> false)
           = (wrapped && prefs.Prefs.cipher_untrusted
              && (not m.Linkmodel.trusted)
              && c.Selector.driver <> "vrp")
         in
         (* Pure decision: asking twice answers the same. *)
         let c2 = Selector.choose ~prefs ~exclude net ~src ~dst in
         let stable =
           c2.Selector.driver = c.Selector.driver
           && (match (c2.Selector.segment, c.Selector.segment) with
               | Some s2, Some s1 ->
                 Simnet.Segment.uid s2 = Simnet.Segment.uid s1
               | None, None -> true
               | _ -> false)
           && c2.Selector.filters = c.Selector.filters
         in
         chosen_usable && driver_ok && san_pref_ok && adoc_ok && crypto_ok
         && stable)

(* ---------- suites ---------- *)

let () =
  Alcotest.run "check"
    [ ( "token",
        [ Alcotest.test_case "round trip" `Quick test_token_round_trip;
          Alcotest.test_case "rejects malformed" `Quick
            test_token_rejects_malformed;
          Alcotest.test_case "plan digest" `Quick test_plan_digest ] );
      ( "policy",
        [ Alcotest.test_case "same-timestamp orders" `Quick
            test_policy_orders ] );
      ( "proc-errors",
        [ Alcotest.test_case "suspend outside a process" `Quick
            test_suspend_outside_process;
          Alcotest.test_case "double resume" `Quick
            test_double_resume_message ] );
      ( "kit",
        [ Alcotest.test_case "green under fifo" `Quick
            test_kit_green_under_fifo;
          Alcotest.test_case "failover e2e via the kit" `Quick
            test_failover_through_kit ] );
      ( "explore",
        [ Alcotest.test_case "demo bug caught <= 200 seeds" `Quick
            test_demo_bug_caught_within_seeds;
          Alcotest.test_case "replay reproduces" `Quick
            test_replay_reproduces_deterministically;
          Alcotest.test_case "replay guards" `Quick test_replay_guards;
          Alcotest.test_case "shrink minimises" `Quick test_shrink_minimises ] );
      ( "regression",
        [ Alcotest.test_case "race fixes hold under pinned tokens" `Quick
            test_race_regressions ] );
      Tutil.qsuite "selector" [ prop_selector_decision_table ] ]

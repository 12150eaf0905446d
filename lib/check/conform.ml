module Sim = Engine.Sim
module Clock = Engine.Clock
module Time = Engine.Time
module Proc = Engine.Proc
module Bb = Engine.Bytebuf
module Node = Simnet.Node
module Presets = Simnet.Presets
module Prefs = Selector.Prefs
module Vl = Vlink.Vl
module Ct = Circuit.Ct

exception Failed of string

let failf fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let comp_name = function
  | Vl.Done n -> Printf.sprintf "Done %d" n
  | Vl.Eof -> "Eof"
  | Vl.Again -> "Again"
  | Vl.Error m -> Printf.sprintf "Error %S" m

(* ---------- VLink fixtures ---------- *)

(* One adapter under test: a fresh grid whose topology and preferences make
   the selector pick exactly that adapter for [dial]. *)
type env = {
  grid : Padico.t;
  client : Node.t;
  server : Node.t;
  dial : port:int -> Vl.t;
  bind : port:int -> (Vl.t -> unit) -> unit;
  oneway : bool;  (* client-to-server byte stream only (VRP) *)
  strict_eof : bool;  (* peer close must read as [Eof], never [Error] *)
  expect_driver : string option;
  xfer : int;  (* bulk-transfer size, scaled to the link speed *)
}

type fixture = {
  fname : string;
  skip : string list;  (* obligation names not applicable to this adapter *)
  build : unit -> env;
}

(* Wrapper preferences isolated per fixture so [expect_driver] is exact. *)
let bare_prefs =
  { Prefs.default with Prefs.adoc_on_slow = false; cipher_untrusted = false }

let pair_env ~model ~prefs ?backend ?(oneway = false) ?(strict_eof = true)
    ?expect_driver ?(xfer = 65_536) () =
  let grid = Padico.create ~prefs ?backend () in
  let c = Padico.add_node grid "c" in
  let s = Padico.add_node grid "s" in
  ignore (Padico.add_segment grid model ~name:"link" [ c; s ]);
  { grid; client = c; server = s;
    dial = (fun ~port -> Padico.connect grid ~src:c ~dst:s ~port);
    bind = (fun ~port accept -> Padico.listen grid s ~port accept);
    oneway; strict_eof; expect_driver; xfer }

let loopback_env ?backend () =
  let grid = Padico.create ~prefs:bare_prefs ?backend () in
  let n = Padico.add_node grid "c" in
  { grid; client = n; server = n;
    dial = (fun ~port -> Padico.connect grid ~src:n ~dst:n ~port);
    bind = (fun ~port accept -> Padico.listen grid n ~port accept);
    oneway = false; strict_eof = true; expect_driver = Some "loopback";
    xfer = 65_536 }

let resilient_env () =
  let grid = Padico.create ~prefs:bare_prefs () in
  let c = Padico.add_node grid "c" in
  let s = Padico.add_node grid "s" in
  ignore (Padico.add_segment grid Presets.myrinet2000 ~name:"san" [ c; s ]);
  ignore (Padico.add_segment grid Presets.ethernet100 ~name:"lan" [ c; s ]);
  { grid; client = c; server = s;
    dial =
      (fun ~port -> Resilient.vl (Resilient.connect grid ~src:c ~dst:s ~port));
    bind = (fun ~port accept -> Resilient.listen grid s ~port accept);
    oneway = false; strict_eof = true; expect_driver = Some "resilient";
    xfer = 65_536 }

let vlink_fixtures =
  [ { fname = "loopback"; skip = []; build = loopback_env };
    { fname = "sysio"; skip = [];
      build =
        (fun () ->
           pair_env ~model:Presets.ethernet100 ~prefs:bare_prefs
             ~expect_driver:"sysio" ()) };
    { fname = "madio"; skip = [];
      build =
        (fun () ->
           pair_env ~model:Presets.myrinet2000 ~prefs:bare_prefs
             ~expect_driver:"madio" ()) };
    { fname = "pstream"; skip = [];
      build =
        (fun () ->
           pair_env ~model:Presets.vthd
             ~prefs:
               { bare_prefs with
                 Prefs.pstream_on_wan = true; pstream_streams = 2 }
             ~expect_driver:"pstream" ()) };
    { fname = "adoc"; skip = [];
      build =
        (fun () ->
           pair_env ~model:Presets.modem
             ~prefs:{ bare_prefs with Prefs.adoc_on_slow = true }
             ~expect_driver:"adoc" ~xfer:8_192 ()) };
    (* Both filters stacked: AdOC under the cipher on an untrusted slow
       link. *)
    { fname = "adoc+crypto"; skip = [];
      build =
        (fun () ->
           pair_env ~model:Presets.modem
             ~prefs:
               { bare_prefs with
                 Prefs.adoc_on_slow = true; cipher_untrusted = true }
             ~expect_driver:"crypto" ~xfer:8_192 ()) };
    { fname = "crypto"; skip = [];
      build =
        (fun () ->
           pair_env
             ~model:(Presets.transcontinental_loss 0.0)
             ~prefs:{ bare_prefs with Prefs.cipher_untrusted = true }
             ~expect_driver:"crypto" ~xfer:16_384 ()) };
    (* No "timeout" for VRP: its pacer flushes sub-chunk residue only at
       [finish], so the accept (first datagram) arrives together with the
       stream end — a silent-but-open connection cannot be posed. *)
    { fname = "vrp"; skip = [ "timeout" ];
      build =
        (fun () ->
           pair_env
             ~model:(Presets.transcontinental_loss 0.0)
             ~prefs:
               { bare_prefs with Prefs.vrp_on_lossy = true;
                 vrp_tolerance = 0.0 }
             ~oneway:true ~strict_eof:false ~expect_driver:"vrp"
             ~xfer:16_384 ()) };
    { fname = "resilient"; skip = []; build = resilient_env } ]

(* ---------- obligation scaffolding ---------- *)

let port = 6100

let probe_len = 16

let pattern ~seed n =
  let b = Bb.create n in
  Bb.fill_pattern b ~seed;
  b

let wait_writable vl =
  Proc.suspend (fun resume -> Vl.on_writable vl (fun () -> resume ()))

(* Blocking-read [total] bytes into a fresh buffer; any non-[Done]
   completion is a violation. The generous deadline converts a hang under
   an adversarial schedule into a reportable failure. *)
let read_exact ?(deadline = Time.sec 120) vl total =
  let into = Bb.create total in
  let got = ref 0 in
  while !got < total do
    (* Never offer more window than we still expect: a read may legally
       fill the whole buffer, and overflow past [total] would steal bytes
       belonging to the caller's next message. *)
    let window = Bb.create (min 16_384 (total - !got)) in
    (match Vl.await (Vl.post_read ~timeout_ns:deadline vl window) with
     | Vl.Done n ->
       if n <= 0 || n > Bb.length window then
         failf "read completed Done %d with a %d-byte buffer" n
           (Bb.length window);
       Bb.blit ~src:window ~src_off:0 ~dst:into ~dst_off:!got ~len:n;
       got := !got + n
     | c -> failf "read at %d/%d completed %s" !got total (comp_name c))
  done;
  into

let write_all vl buf =
  match Vl.await (Vl.post_write vl buf) with
  | Vl.Done n when n = Bb.length buf -> ()
  | c -> failf "write of %d bytes completed %s" (Bb.length buf) (comp_name c)

let connect_or_fail vl =
  match Vl.await_connected vl with
  | Ok () -> ()
  | Error m -> failf "connect failed: %s" m

(* Dial + accept + client-to-server probe (the probe also triggers accept on
   drivers whose server side materialises on first data, e.g. VRP), then run
   [client]/[server] as processes and re-raise any violation they recorded. *)
let scaffold env ~client ~server =
  let handles = ref [] in
  let accepted = ref false in
  env.bind ~port (fun vl ->
      if not !accepted then begin
        accepted := true;
        handles :=
          ( "server",
            Padico.spawn env.grid env.server ~name:"server" (fun () ->
                if not (Vl.is_connected vl) then
                  failf "accepted descriptor not connected";
                let got = read_exact vl probe_len in
                if not (Bb.equal got (pattern ~seed:7 probe_len)) then
                  failf "probe bytes corrupted";
                server vl) )
          :: !handles
      end);
  let cvl = env.dial ~port in
  handles :=
    ( "client",
      Padico.spawn env.grid env.client ~name:"client" (fun () ->
          connect_or_fail cvl;
          if not (Vl.is_connected cvl) then
            failf "connected descriptor reports not connected";
          write_all cvl (pattern ~seed:7 probe_len);
          client cvl) )
    :: !handles;
  Padico.run env.grid ~until:(Time.sec 600);
  if not !accepted then failf "server never accepted";
  List.iter
    (fun (what, h) ->
       match Proc.result h with
       | Some (Ok ()) -> ()
       | Some (Error (Failed _ as e)) -> raise e
       | Some (Error e) ->
         failf "%s process raised %s" what (Printexc.to_string e)
       | None -> failf "%s process did not finish (stuck request?)" what)
    !handles

let expect_end ~strict vl =
  match Vl.await (Vl.post_read ~timeout_ns:(Time.sec 120) vl (Bb.create 64))
  with
  | Vl.Eof -> ()
  | Vl.Error m when not strict -> ignore m
  | c -> failf "peer close read as %s, want Eof" (comp_name c)

(* ---------- the VLink obligations ---------- *)

type obligation = { oname : string; run : env -> unit }

let ob_connect =
  { oname = "connect";
    run =
      (fun env ->
         scaffold env
           ~client:(fun cvl ->
               (match env.expect_driver with
                | Some d when Vl.driver_name cvl <> d ->
                  failf "selector picked %S, fixture expects %S"
                    (Vl.driver_name cvl) d
                | _ -> ());
               Vl.close cvl)
           ~server:(fun svl -> Vl.close svl)) }

let ob_no_loss =
  { oname = "no-loss";
    run =
      (fun env ->
         let total = env.xfer in
         scaffold env
           ~client:(fun cvl ->
               let out = pattern ~seed:11 total in
               let chunk = max 1 (total / 8) in
               let off = ref 0 in
               while !off < total do
                 let n = min chunk (total - !off) in
                 write_all cvl (Bb.sub out !off n);
                 off := !off + n
               done;
               if not env.oneway then begin
                 let back = read_exact cvl total in
                 if not (Bb.equal back (pattern ~seed:13 total)) then
                   failf "return stream corrupted or reordered"
               end;
               Vl.close cvl)
           ~server:(fun svl ->
               let got = read_exact svl total in
               if not (Bb.equal got (pattern ~seed:11 total)) then
                 failf "stream corrupted or reordered";
               if not env.oneway then write_all svl (pattern ~seed:13 total);
               expect_end ~strict:env.strict_eof svl;
               Vl.close svl)) }

let ob_eof =
  { oname = "eof";
    run =
      (fun env ->
         let total = min env.xfer 16_384 in
         scaffold env
           ~client:(fun cvl ->
               write_all cvl (pattern ~seed:19 total);
               Vl.close cvl)
           ~server:(fun svl ->
               let got = read_exact svl total in
               if not (Bb.equal got (pattern ~seed:19 total)) then
                 failf "bytes before close corrupted";
               (* End of stream is [Eof], stably: never [Error], and a
                  second read does not un-end the stream. *)
               expect_end ~strict:env.strict_eof svl;
               expect_end ~strict:env.strict_eof svl;
               Vl.close svl)) }

let ob_close =
  { oname = "close";
    run =
      (fun env ->
         scaffold env
           ~client:(fun cvl ->
               Vl.close cvl;
               (* Idempotent: a second close must not raise. *)
               Vl.close cvl;
               (match
                  Vl.await
                    (Vl.post_write ~timeout_ns:(Time.sec 120) cvl
                       (Bb.create 64))
                with
                | Vl.Error _ | Vl.Eof -> ()
                | c -> failf "write after close completed %s" (comp_name c));
               match
                 Vl.await
                   (Vl.post_read ~timeout_ns:(Time.sec 120) cvl
                      (Bb.create 64))
               with
               | Vl.Eof | Vl.Error _ -> ()
               | c -> failf "read after close completed %s" (comp_name c))
           ~server:(fun svl ->
               expect_end ~strict:env.strict_eof svl;
               Vl.close svl;
               Vl.close svl)) }

let ob_again =
  { oname = "again";
    run =
      (fun env ->
         let total = env.xfer in
         scaffold env
           ~client:(fun cvl ->
               let out = pattern ~seed:23 total in
               let rec push off =
                 if off < total then begin
                   let n = min 16_384 (total - off) in
                   match
                     Vl.await
                       (Vl.post_write ~nonblock:true cvl (Bb.sub out off n))
                   with
                   | Vl.Done 0 | Vl.Again ->
                     (* Progress contract: a parked writer woken by
                        [on_writable] retries and eventually drains. *)
                     wait_writable cvl;
                     push off
                   | Vl.Done k -> push (off + k)
                   | c -> failf "nonblock write completed %s" (comp_name c)
                 end
               in
               push 0;
               Vl.close cvl)
           ~server:(fun svl ->
               (* Slow consumer: small reads with pauses, to push the
                  writer into its EAGAIN path on bounded drivers. *)
               let into = Bb.create total in
               let window = Bb.create 4_096 in
               let got = ref 0 in
               while !got < total do
                 (match
                    Vl.await
                      (Vl.post_read ~timeout_ns:(Time.sec 120) svl window)
                  with
                  | Vl.Done n ->
                    Bb.blit ~src:window ~src_off:0 ~dst:into ~dst_off:!got
                      ~len:n;
                    got := !got + n
                  | c ->
                    failf "read at %d/%d completed %s" !got total
                      (comp_name c));
                 if !got < total then
                   Proc.sleep_on (Node.clock env.server) (Time.us 200)
               done;
               if not (Bb.equal into (pattern ~seed:23 total)) then
                 failf "stream corrupted under backpressure";
               expect_end ~strict:env.strict_eof svl;
               Vl.close svl)) }

let ob_timeout =
  { oname = "timeout";
    run =
      (fun env ->
         scaffold env
           ~client:(fun cvl ->
               (* Stay silent — and open — far past the server's deadline,
                  measured from whenever the probe finally lands (paced
                  transports deliver it 100+ ms in), so the only possible
                  completion is the timeout. *)
               Proc.sleep_on (Node.clock env.client) (Time.sec 1);
               Vl.close cvl)
           ~server:(fun svl ->
               let clk = Node.clock env.server in
               let t0 = Clock.now clk in
               (match
                  Vl.await
                    (Vl.post_read ~timeout_ns:(Time.ms 5) svl (Bb.create 64))
                with
                | Vl.Error "timeout" ->
                  if Clock.now clk - t0 < Time.ms 5 then
                    failf "timeout fired %d ns early"
                      (Time.ms 5 - (Clock.now clk - t0))
                | c -> failf "silent read completed %s" (comp_name c));
               Vl.close svl)) }

let vlink_obligations =
  [ ob_connect; ob_no_loss; ob_eof; ob_close; ob_again; ob_timeout ]

(* ---------- Circuit counterpart ---------- *)

type ct_env = { cgrid : Padico.t; cts : Ct.t array }

type ct_fixture = {
  cname : string;
  cbuild : unit -> ct_env;
}

let ct_pair model () =
  let grid = Padico.create ~prefs:bare_prefs () in
  let a = Padico.add_node grid "c" in
  let b = Padico.add_node grid "s" in
  ignore (Padico.add_segment grid model ~name:"link" [ a; b ]);
  { cgrid = grid; cts = Padico.circuit grid ~name:"kit" [ a; b ] }

let ct_mixed () =
  (* Three ranks on two nodes: rank 0 <-> rank 2 is an intra-node loopback
     link, rank 0 <-> rank 1 crosses the LAN — one circuit mixing
     adapters. *)
  let grid = Padico.create ~prefs:bare_prefs () in
  let a = Padico.add_node grid "c" in
  let b = Padico.add_node grid "s" in
  ignore (Padico.add_segment grid Presets.ethernet100 ~name:"link" [ a; b ]);
  { cgrid = grid; cts = Padico.circuit grid ~name:"kit" [ a; b; a ] }

let ct_fixtures =
  [ { cname = "circuit-lan"; cbuild = ct_pair Presets.ethernet100 };
    { cname = "circuit-san"; cbuild = ct_pair Presets.myrinet2000 };
    { cname = "circuit-mixed"; cbuild = ct_mixed } ]

type ct_obligation = { ct_oname : string; ct_run : ct_env -> unit }

let ct_membership =
  { ct_oname = "membership";
    ct_run =
      (fun env ->
         let n = Array.length env.cts in
         Array.iteri
           (fun i ct ->
              if Ct.rank ct <> i then
                failf "rank %d reports rank %d" i (Ct.rank ct);
              if Ct.size ct <> n then
                failf "rank %d reports group size %d, want %d" i (Ct.size ct)
                  n;
              if Ct.name ct <> "kit" then
                failf "rank %d reports circuit name %S" i (Ct.name ct);
              for j = 0 to n - 1 do
                if
                  Node.uid (Ct.node_of_rank ct j)
                  <> Node.uid (Ct.node env.cts.(j))
                then failf "rank %d maps rank %d to the wrong node" i j
              done)
           env.cts) }

(* Each rank-0 message must arrive as its own [incoming] with exact
   boundaries, in send order, at every destination rank. *)
let ct_boundaries =
  { ct_oname = "boundaries";
    ct_run =
      (fun env ->
         let n = Array.length env.cts in
         let got = Array.make n [] in
         for j = 1 to n - 1 do
           Ct.set_recv env.cts.(j) (fun inc ->
               let len = Ct.remaining inc in
               let body = Ct.unpack inc len in
               got.(j) <-
                 (Ct.incoming_src inc, len, Bb.to_string body) :: got.(j))
         done;
         for j = 1 to n - 1 do
           let m1 = Ct.begin_packing env.cts.(0) ~dst:j in
           Ct.pack m1 (pattern ~seed:(100 + j) 96);
           Ct.end_packing m1;
           let m2 = Ct.begin_packing env.cts.(0) ~dst:j in
           Ct.pack m2 (pattern ~seed:(200 + j) 40);
           Ct.end_packing m2
         done;
         Padico.run env.cgrid ~until:(Time.sec 600);
         for j = 1 to n - 1 do
           match List.rev got.(j) with
           | [ (s1, l1, b1); (s2, l2, b2) ] ->
             if s1 <> 0 || s2 <> 0 then
               failf "rank %d saw wrong source ranks %d, %d" j s1 s2;
             if l1 <> 96 || l2 <> 40 then
               failf
                 "rank %d message boundaries broken: got %d, %d want 96, 40"
                 j l1 l2;
             if
               b1 <> Bb.to_string (pattern ~seed:(100 + j) 96)
               || b2 <> Bb.to_string (pattern ~seed:(200 + j) 40)
             then failf "rank %d payloads corrupted or reordered" j
           | l ->
             failf "rank %d received %d messages, want 2" j (List.length l)
         done) }

let ct_packing =
  { ct_oname = "packing";
    ct_run =
      (fun env ->
         let dst = Array.length env.cts - 1 in
         let seen = ref None in
         Ct.set_recv env.cts.(dst) (fun inc ->
             let a = Ct.unpack_int inc in
             let b = Ct.unpack_int inc in
             let rem = Ct.remaining inc in
             let body = Bb.to_string (Ct.unpack inc rem) in
             seen := Some (a, b, rem, body, Ct.remaining inc));
         let out = Ct.begin_packing env.cts.(0) ~dst in
         Ct.pack_int out 42;
         Ct.pack_int out (-7);
         Ct.pack out (pattern ~seed:31 64);
         Ct.end_packing out;
         Padico.run env.cgrid ~until:(Time.sec 600);
         match !seen with
         | None -> failf "packed message never delivered"
         | Some (a, b, rem, body, after) ->
           if a <> 42 || b <> -7 then
             failf "unpack_int got %d, %d want 42, -7" a b;
           if rem <> 64 then failf "remaining %d after ints, want 64" rem;
           if body <> Bb.to_string (pattern ~seed:31 64) then
             failf "packed bytes corrupted";
           if after <> 0 then failf "remaining %d at end, want 0" after) }

let ct_obligations = [ ct_membership; ct_boundaries; ct_packing ]

(* ---------- Collectives counterpart ---------- *)

module Group = Collectives.Group
module Netdb = Selector.Netdb

(* A group fixture is a topology x strategy pair: the same semantic
   obligations must hold whether the ranks share one segment (lan, san) or
   split into SAN islands over a WAN backbone (mixed), and whether the
   engine runs the flat star or the multilevel trees. *)
type coll_env = {
  ggrid : Padico.t;
  gnodes : Node.t array;
  groups : Group.t array;
}

type coll_fixture = {
  gname : string;
  gbuild : unit -> coll_env;
}

let coll_single model strategy () =
  let grid = Padico.create ~prefs:bare_prefs () in
  let nodes =
    Array.init 4 (fun i -> Padico.add_node grid (Printf.sprintf "n%d" i))
  in
  ignore (Padico.add_segment grid model ~name:"link" (Array.to_list nodes));
  { ggrid = grid; gnodes = nodes;
    groups = Group.create ~strategy grid ~name:"kit" (Array.to_list nodes) }

(* Two 2-rank Myrinet islands joined only by a VTHD backbone: the smallest
   topology where Netdb yields more than one cluster, so the multilevel
   strategy actually routes through proxies. *)
let coll_mixed ?deadline_ns ?heal strategy () =
  let grid = Padico.create ~prefs:bare_prefs () in
  let mk c i = Padico.add_node grid (Printf.sprintf "c%d-%d" c i) in
  let c0 = [ mk 0 0; mk 0 1 ] in
  let c1 = [ mk 1 0; mk 1 1 ] in
  ignore (Padico.add_segment grid Presets.myrinet2000 ~name:"san0" c0);
  ignore (Padico.add_segment grid Presets.myrinet2000 ~name:"san1" c1);
  ignore (Padico.add_segment grid Presets.vthd ~name:"wan" (c0 @ c1));
  { ggrid = grid; gnodes = Array.of_list (c0 @ c1);
    groups =
      Group.create ~strategy ?deadline_ns ?heal grid ~name:"kit" (c0 @ c1) }

let coll_fixtures =
  [ { gname = "coll-lan-flat";
      gbuild = coll_single Presets.ethernet100 Group.Flat };
    { gname = "coll-lan-ml";
      gbuild = coll_single Presets.ethernet100 Group.Multilevel };
    { gname = "coll-san-flat";
      gbuild = coll_single Presets.myrinet2000 Group.Flat };
    { gname = "coll-san-ml";
      gbuild = coll_single Presets.myrinet2000 Group.Multilevel };
    { gname = "coll-mixed-flat"; gbuild = coll_mixed Group.Flat };
    { gname = "coll-mixed-ml"; gbuild = coll_mixed Group.Multilevel } ]

type coll_obligation = { coname : string; corun : coll_env -> unit }

(* One process per rank running [body r member]; a rank that never finishes
   (a hung collective) is a violation, as is any uncaught exception. *)
let coll_scaffold env body =
  let hs =
    Array.mapi
      (fun r node ->
         Padico.spawn env.ggrid node ~name:(Printf.sprintf "coll-%d" r)
           (fun () -> body r env.groups.(r)))
      env.gnodes
  in
  Padico.run env.ggrid ~until:(Time.sec 600);
  Array.iteri
    (fun r h ->
       match Proc.result h with
       | Some (Ok ()) -> ()
       | Some (Error (Failed _ as e)) -> raise e
       | Some (Error e) ->
         failf "rank %d raised %s" r (Printexc.to_string e)
       | None -> failf "rank %d never finished (hung collective?)" r)
    hs

(* Reference byte-wise reduction over [n] contributions
   (rank r contributes [pattern ~seed:(seed0 + r) len]). *)
let coll_combine op ~seed0 n len =
  let bufs =
    Array.init n (fun r -> Bb.to_string (pattern ~seed:(seed0 + r) len))
  in
  let f =
    match op with
    | Group.Sum -> fun a b -> (a + b) land 0xff
    | Group.Max -> max
    | Group.Bxor -> ( lxor )
  in
  String.init len (fun i ->
      Char.chr (Array.fold_left (fun a s -> f a (Char.code s.[i])) 0 bufs))

let coll_barrier =
  { coname = "barrier";
    corun =
      (fun env ->
         let entered = Array.make (Array.length env.groups) false in
         coll_scaffold env (fun r gm ->
             (* Stagger the entries so the barrier has stragglers to hold
                the early ranks back for. *)
             Proc.sleep_on (Node.clock env.gnodes.(r)) (Time.us (r * 50));
             entered.(r) <- true;
             Group.barrier gm;
             Array.iteri
               (fun j e ->
                  if not e then
                    failf "rank %d left the barrier before rank %d entered"
                      r j)
               entered)) }

let coll_bcast =
  { coname = "bcast";
    corun =
      (fun env ->
         let len = 512 in
         let last = Array.length env.groups - 1 in
         let want_a = Bb.to_string (pattern ~seed:41 len) in
         let want_b = Bb.to_string (pattern ~seed:43 len) in
         coll_scaffold env (fun r gm ->
             (* Two broadcasts back to back, the second from the highest
                rank: exercises both tree rotation to a non-zero root and
                the per-member operation sequencing. *)
             let got =
               Group.bcast gm ~root:0
                 (if r = 0 then pattern ~seed:41 len else Bb.create 0)
             in
             if Bb.to_string got <> want_a then
               failf "rank %d: broadcast from rank 0 corrupted" r;
             let got =
               Group.bcast gm ~root:last
                 (if r = last then pattern ~seed:43 len else Bb.create 0)
             in
             if Bb.to_string got <> want_b then
               failf "rank %d: broadcast from rank %d corrupted" r last)) }

let coll_reduce =
  { coname = "reduce";
    corun =
      (fun env ->
         let len = 256 in
         let n = Array.length env.groups in
         let want = coll_combine Group.Sum ~seed0:1 n len in
         coll_scaffold env (fun r gm ->
             match
               Group.reduce gm ~root:0 ~op:Group.Sum
                 (pattern ~seed:(1 + r) len)
             with
             | Some b when r = 0 ->
               if Bb.to_string b <> want then
                 failf "root: reduced bytes wrong"
             | Some _ -> failf "rank %d: non-root received a reduce result" r
             | None when r = 0 -> failf "root: reduce returned no result"
             | None -> ())) }

let coll_allreduce =
  { coname = "allreduce";
    corun =
      (fun env ->
         let len = 256 in
         let n = Array.length env.groups in
         let want = coll_combine Group.Bxor ~seed0:1 n len in
         coll_scaffold env (fun r gm ->
             let got =
               Group.allreduce gm ~op:Group.Bxor (pattern ~seed:(1 + r) len)
             in
             if Bb.to_string got <> want then
               failf "rank %d: allreduce bytes wrong" r)) }

let coll_gather =
  { coname = "gather";
    corun =
      (fun env ->
         let len = 64 in
         let n = Array.length env.groups in
         coll_scaffold env (fun r gm ->
             match Group.gather gm ~root:0 (pattern ~seed:(100 + r) len) with
             | Some parts when r = 0 ->
               if Array.length parts <> n then
                 failf "root: gathered %d parts, want %d"
                   (Array.length parts) n;
               Array.iteri
                 (fun j p ->
                    if not (Bb.equal p (pattern ~seed:(100 + j) len)) then
                      failf "root: contribution of rank %d corrupted" j)
                 parts
             | Some _ -> failf "rank %d: non-root received gathered parts" r
             | None when r = 0 -> failf "root: gather returned no parts"
             | None -> ())) }

let coll_scatter =
  { coname = "scatter";
    corun =
      (fun env ->
         let len = 64 in
         let n = Array.length env.groups in
         coll_scaffold env (fun r gm ->
             let parts =
               if r = 0 then
                 Array.init n (fun i -> pattern ~seed:(200 + i) len)
               else [||]
             in
             let got = Group.scatter gm ~root:0 parts in
             if not (Bb.equal got (pattern ~seed:(200 + r) len)) then
               failf "rank %d: scattered chunk corrupted" r)) }

(* The accounting the multilevel strategy exists for: a broadcast must
   cross the WAN exactly [clusters - 1] times under [Multilevel] and once
   per out-of-island rank under [Flat] (zero for single-cluster fixtures
   under either). *)
let coll_wan_frugal =
  { coname = "wan-frugal";
    corun =
      (fun env ->
         let gm0 = env.groups.(0) in
         let db = Group.netdb gm0 in
         let n = Array.length env.groups in
         let expect =
           match Group.strategy gm0 with
           | Group.Multilevel -> Netdb.cluster_count db - 1
           | Group.Flat ->
             let c0 = Netdb.cluster_of db 0 in
             let out = ref 0 in
             for r = 1 to n - 1 do
               if Netdb.cluster_of db r <> c0 then incr out
             done;
             !out
         in
         let m0 = Group.wan_messages gm0 in
         coll_scaffold env (fun r gm ->
             ignore
               (Group.bcast gm ~root:0
                  (if r = 0 then pattern ~seed:3 64 else Bb.create 0)));
         let got = Group.wan_messages gm0 - m0 in
         if got <> expect then
           failf "broadcast crossed the WAN %d times, want %d" got expect) }

let coll_obligations =
  [ coll_barrier; coll_bcast; coll_reduce; coll_allreduce; coll_gather;
    coll_scatter; coll_wan_frugal ]

(* Fault story: the WAN backbone drops out from under a multilevel
   broadcast. With a per-operation deadline armed, every rank must reach a
   definite outcome — the payload, or a clean [Group.Failed] — before the
   run drains; a rank stuck forever in the collective is the violation. *)
let coll_wan_down ~plan policy =
  let deadline_ns = Time.ms 200 in
  let env = coll_mixed ~deadline_ns Group.Multilevel () in
  Sim.set_policy (Padico.sim env.ggrid) policy;
  (match plan with
   | None -> ()
   | Some p -> ignore (Padico_fault.Inject.apply (Padico.net env.ggrid) p));
  ignore
    (Padico_fault.Inject.apply (Padico.net env.ggrid)
       [ { Padico_fault.Plan.at_ns = Time.ms 1;
           action = Padico_fault.Plan.Link_down "wan" } ]);
  let len = 512 in
  let want = Bb.to_string (pattern ~seed:47 len) in
  let outcomes = Array.make (Array.length env.groups) `Stuck in
  coll_scaffold env (fun r gm ->
      (* Start after the backbone is already dark. *)
      Proc.sleep_on (Node.clock env.gnodes.(r)) (Time.ms 2);
      match
        Group.bcast gm ~root:0
          (if r = 0 then pattern ~seed:47 len else Bb.create 0)
      with
      | got ->
        if Bb.to_string got <> want then
          failf "rank %d: payload corrupted during WAN outage" r;
        outcomes.(r) <- `Done
      | exception Group.Failed _ -> outcomes.(r) <- `Failed);
  (* The other island can only be reached over the dead backbone: at least
     one rank there must have failed (cleanly) rather than delivered. *)
  let db = Group.netdb env.groups.(0) in
  let c0 = Netdb.cluster_of db 0 in
  let remote_failed = ref false and remote = ref 0 in
  Array.iteri
    (fun r o ->
       if Netdb.cluster_of db r <> c0 then begin
         incr remote;
         if o = `Failed then remote_failed := true
       end)
    outcomes;
  if !remote > 0 && not !remote_failed then
    failf "WAN down, yet every remote rank claims delivery"

(* ---------- self-healing membership obligations ---------- *)

(* Reference reduction over the live ranks only: the healing group folds
   the contributions of the members that survive the eviction. *)
let coll_live_combine op ~seed0 ~victim n len =
  let f =
    match op with
    | Group.Sum -> fun a b -> (a + b) land 0xff
    | Group.Max -> max
    | Group.Bxor -> ( lxor )
  in
  let bufs =
    List.filter_map
      (fun r ->
         if r = victim then None
         else Some (Bb.to_string (pattern ~seed:(seed0 + r) len)))
      (List.init n (fun r -> r))
  in
  String.init len (fun i ->
      Char.chr (List.fold_left (fun a s -> f a (Char.code s.[i])) 0 bufs))

let coll_heal_ops =
  [ "barrier"; "bcast"; "reduce"; "allreduce"; "gather"; "scatter" ]

(* Fault story for the healing tentpole: [victim] crashes while [opname]
   is in flight. The survivors' detectors must confirm the death, agree on
   the eviction, re-partition the topology and retry the operation over
   the shrunken group — every survivor gets the correct post-eviction
   result and nobody hangs. Victim 2 is the remote island's proxy (the
   eviction re-elects rank 3); victim 3 a remote leaf. Rank 0 roots the
   rooted operations and always survives. *)
let coll_heal ~strategy ~victim ~opname ~plan policy =
  let len = 64 in
  let env =
    coll_mixed ~deadline_ns:(Time.ms 400) ~heal:Detect.default_config
      strategy ()
  in
  let sim = Padico.sim env.ggrid in
  Sim.set_policy sim policy;
  (match plan with
   | None -> ()
   | Some p -> ignore (Padico_fault.Inject.apply (Padico.net env.ggrid) p));
  let n = Array.length env.groups in
  ignore
    (Padico_fault.Inject.apply (Padico.net env.ggrid)
       [ { Padico_fault.Plan.at_ns = Time.ms 20;
           action =
             Padico_fault.Plan.Node_crash (Node.name env.gnodes.(victim)) }
       ]);
  let run_op r gm =
    match opname with
    | "barrier" -> Group.barrier gm
    | "bcast" ->
      let want = Bb.to_string (pattern ~seed:7 len) in
      let b =
        Group.bcast gm ~root:0
          (if r = 0 then pattern ~seed:7 len else Bb.create 0)
      in
      if Bb.to_string b <> want then failf "rank %d: bcast corrupted" r
    | "reduce" -> (
      let want = coll_live_combine Group.Sum ~seed0:11 ~victim n len in
      match Group.reduce gm ~root:0 ~op:Group.Sum (pattern ~seed:(11 + r) len) with
      | Some res when r = 0 ->
        if Bb.to_string res <> want then failf "root: reduce bytes wrong"
      | Some _ -> failf "rank %d: non-root got a reduce result" r
      | None -> if r = 0 then failf "root: reduce returned nothing")
    | "allreduce" ->
      let want = coll_live_combine Group.Bxor ~seed0:23 ~victim n len in
      let res = Group.allreduce gm ~op:Group.Bxor (pattern ~seed:(23 + r) len) in
      if Bb.to_string res <> want then failf "rank %d: allreduce bytes wrong" r
    | "gather" -> (
      match Group.gather gm ~root:0 (pattern ~seed:(31 + r) len) with
      | Some parts when r = 0 ->
        Array.iteri
          (fun j p ->
             if j = victim then begin
               if Bb.length p <> 0 then
                 failf "root: dead rank %d's gather slot is not empty" j
             end
             else if not (Bb.equal p (pattern ~seed:(31 + j) len)) then
               failf "root: contribution of rank %d corrupted" j)
          parts
      | Some _ -> failf "rank %d: non-root received gathered parts" r
      | None -> if r = 0 then failf "root: gather returned no parts")
    | "scatter" ->
      let parts =
        if r = 0 then Array.init n (fun i -> pattern ~seed:(41 + i) len)
        else [||]
      in
      let got = Group.scatter gm ~root:0 parts in
      if not (Bb.equal got (pattern ~seed:(41 + r) len)) then
        failf "rank %d: scattered chunk corrupted" r
    | op -> failf "unknown healing obligation %S" op
  in
  let hs =
    Array.mapi
      (fun r node ->
         Padico.spawn env.ggrid node ~name:(Printf.sprintf "heal-%d" r)
           (fun () ->
              let gm = env.groups.(r) in
              (* Warm-up: the detectors need inter-arrival samples, and
                 every member must exist before anyone begins. *)
              Group.barrier gm;
              if r <> victim then begin
                (* Start the operation just after the crash (20 ms): the
                   death is confirmed mid-operation, forcing the
                   eviction-and-retry path rather than a clean pre-op
                   membership change. *)
                let dt = Time.ms 21 - Sim.now sim in
                if dt > 0 then Proc.sleep_on (Node.clock node) dt;
                run_op r gm
              end))
      env.gnodes
  in
  Padico.run env.ggrid ~until:(Time.ms 350);
  Array.iter Group.retire env.groups;
  Array.iteri
    (fun r h ->
       if r <> victim then
         match Proc.result h with
         | Some (Ok ()) -> ()
         | Some (Error (Failed _ as e)) -> raise e
         | Some (Error e) -> failf "rank %d raised %s" r (Printexc.to_string e)
         | None -> failf "rank %d never finished (hung healing op?)" r)
    hs;
  let g0 = env.groups.(0) in
  if Group.epoch g0 <> 1 then
    failf "rank 0 saw epoch %d after one crash, want 1" (Group.epoch g0);
  if Group.dead_ranks g0 <> [ victim ] then
    failf "rank 0's dead set is not [%d]" victim;
  Array.iteri
    (fun r gm ->
       if r <> victim && Group.poisoned gm <> None then
         failf "survivor %d poisoned: %s" r
           (Option.value (Group.poisoned gm) ~default:""))
    env.groups

(* Chaos obligation: an arbitrary storm of crashes, outages, loss bursts
   and partitions (see [Explore.chaos_plan]) against a healing group
   running the full operation sequence. Exact results are not asserted —
   under arbitrary plans, membership and reachability are whatever the
   plan leaves standing — but every rank whose node survives must reach a
   definite outcome per operation (a value or a clean [Group.Failed]) and
   a delivered broadcast payload must be the root's bytes. A hang is the
   violation this case exists to catch. *)
let coll_chaos ~plan policy =
  let len = 128 in
  let env =
    coll_mixed ~deadline_ns:(Time.ms 150) ~heal:Detect.default_config
      Group.Multilevel ()
  in
  Sim.set_policy (Padico.sim env.ggrid) policy;
  (match plan with
   | None -> ()
   | Some p -> ignore (Padico_fault.Inject.apply (Padico.net env.ggrid) p));
  let n = Array.length env.groups in
  let want = Bb.to_string (pattern ~seed:53 len) in
  let hs =
    Array.mapi
      (fun r node ->
         Padico.spawn env.ggrid node ~name:(Printf.sprintf "chaos-%d" r)
           (fun () ->
              let gm = env.groups.(r) in
              let attempt f = try f () with Group.Failed _ -> () in
              attempt (fun () -> Group.barrier gm);
              attempt (fun () ->
                  let b =
                    Group.bcast gm ~root:0
                      (if r = 0 then pattern ~seed:53 len else Bb.create 0)
                  in
                  if Bb.to_string b <> want then
                    failf "rank %d: delivered bcast payload corrupted" r);
              attempt (fun () ->
                  ignore
                    (Group.reduce gm ~root:0 ~op:Group.Sum
                       (pattern ~seed:(61 + r) len)));
              attempt (fun () ->
                  ignore
                    (Group.allreduce gm ~op:Group.Bxor
                       (pattern ~seed:(67 + r) len)));
              attempt (fun () ->
                  ignore (Group.gather gm ~root:0 (pattern ~seed:(71 + r) len)));
              attempt (fun () ->
                  let parts =
                    if r = 0 then
                      Array.init n (fun i -> pattern ~seed:(79 + i) len)
                    else [||]
                  in
                  ignore (Group.scatter gm ~root:0 parts))))
      env.gnodes
  in
  Padico.run env.ggrid ~until:(Time.sec 2);
  Array.iter Group.retire env.groups;
  Array.iteri
    (fun r h ->
       if Node.is_up env.gnodes.(r) then
         match Proc.result h with
         | Some (Ok ()) -> ()
         | Some (Error (Failed _ as e)) -> raise e
         | Some (Error e) -> failf "rank %d raised %s" r (Printexc.to_string e)
         | None -> failf "rank %d (node still up) hung under chaos" r)
    hs

(* ---------- resilient retry exhaustion ---------- *)

(* Fault story: every physical path dies and stays dead — a permanent
   partition. The failover machinery must not spin forever: after
   [max_retries] failed dials the session gives up, and every request the
   application still has outstanding — a parked read, writes beyond the
   rewind window — must complete with a clean [Error], never hang. *)
let resilient_exhausted ~plan policy =
  let grid = Padico.create ~prefs:bare_prefs () in
  let c = Padico.add_node grid "c" in
  let s = Padico.add_node grid "s" in
  ignore (Padico.add_segment grid Presets.myrinet2000 ~name:"san" [ c; s ]);
  ignore (Padico.add_segment grid Presets.ethernet100 ~name:"lan" [ c; s ]);
  Sim.set_policy (Padico.sim grid) policy;
  (match plan with
   | None -> ()
   | Some p -> ignore (Padico_fault.Inject.apply (Padico.net grid) p));
  let config =
    { Resilient.default_config with
      Resilient.retry_base_ns = Time.ms 1; retry_max_ns = Time.ms 4;
      retry_jitter = 0.0; max_retries = 4; ack_timeout_ns = Time.ms 10;
      tx_window = 65_536 }
  in
  Resilient.listen ~config grid s ~port:9300 (fun _vl -> ());
  let conn = Resilient.connect ~config grid ~src:c ~dst:s ~port:9300 in
  let cvl = Resilient.vl conn in
  let h =
    Padico.spawn grid c ~name:"client" (fun () ->
        (match Vl.await_connected cvl with
         | Ok () -> ()
         | Error m -> failf "connect failed before the partition: %s" m);
        (* Permanent partition, anchored at establishment. *)
        ignore
          (Padico_fault.Inject.apply ~base_ns:(Padico.now grid)
             (Padico.net grid)
             [ { Padico_fault.Plan.at_ns = Time.ms 1;
                 action = Padico_fault.Plan.Link_down "san" };
               { Padico_fault.Plan.at_ns = Time.ms 1;
                 action = Padico_fault.Plan.Link_down "lan" } ]);
        Proc.sleep_on (Node.clock c) (Time.ms 2);
        (* A reader parked for bytes that will never come, and enough
           writes to overrun the rewind window with nobody acking. *)
        let rd = Vl.post_read cvl (Bb.create 256) in
        let wrs =
          List.init 8 (fun _ -> Vl.post_write cvl (Bb.create 32_768))
        in
        (match Vl.await rd with
         | Vl.Error _ -> ()
         | o -> failf "parked read: want a clean error, got %s" (comp_name o));
        (* Writes accepted before the outage may complete [Done]; the rest
           must resolve to a clean [Error] — never hang. *)
        List.iteri
          (fun i w ->
             match Vl.await w with
             | Vl.Done _ | Vl.Error _ -> ()
             | o -> failf "write %d completed %s" i (comp_name o))
          wrs)
  in
  Padico.run grid ~until:(Time.sec 600);
  (match Proc.result h with
   | Some (Ok ()) -> ()
   | Some (Error (Failed _ as e)) -> raise e
   | Some (Error e) -> failf "client raised %s" (Printexc.to_string e)
   | None -> failf "client hung after retry exhaustion");
  let st = Resilient.stats conn in
  if st.Resilient.established then
    failf "session claims establishment across a permanent partition"

(* ---------- edge churn ---------- *)

(* An edge gateway under churn: an accept storm (every client
   dials at t=0), mid-handshake disconnects (abort fired before the
   SYN-ACK can arrive) and clients that reconnect reusing the same
   logical port. The server echoes every byte. Under every schedule
   policy: every surviving request must see its full echo, every
   mid-handshake abort must leave no server-side connection behind, and
   once the run quiesces the stacks must be empty — zero live
   connections, zero resident bytes, and readiness queues fully drained
   (no lost wakeups, no stuck sources). *)

module Sysio = Netaccess.Sysio
module Na = Netaccess.Na_core
module Tcp = Drivers.Tcp

let edge_churn ~plan policy =
  let n_storm = 24 and n_rejoin = 4 and n_abort = 6 in
  let port = 9400 and bufsize = 2048 in
  let grid = Padico.create ~prefs:bare_prefs () in
  let s = Padico.add_node grid "s" in
  let c = Padico.add_node grid "c" in
  let seg = Padico.add_segment grid Presets.ethernet100 ~name:"lan" [ s; c ] in
  Sim.set_policy (Padico.sim grid) policy;
  (match plan with
   | None -> ()
   | Some p -> ignore (Padico_fault.Inject.apply (Padico.net grid) p));
  let sio_s = Sysio.get s and sio_c = Sysio.get c in
  let st_s = Sysio.stack_on sio_s seg in
  let st_c = Sysio.stack_on sio_c seg in
  (* Echo server: read everything available, write it back, and keep the
     unwritten tail in a backlog flushed on [Writable]. *)
  let accepted = ref 0 in
  Sysio.listen ~sndbuf:bufsize ~rcvbuf:bufsize sio_s st_s ~port
    (fun conn ->
       incr accepted;
       let backlog = ref [] in
       let rec flush () =
         match !backlog with
         | [] -> ()
         | b :: rest ->
           let w = Sysio.write conn b in
           if w = Bb.length b then begin
             backlog := rest;
             flush ()
           end
           else if w > 0 then
             backlog := Bb.sub b w (Bb.length b - w) :: rest
       in
       let rec pump () =
         match Sysio.read conn ~max:bufsize with
         | None -> ()
         | Some b ->
           backlog := !backlog @ [ b ];
           pump ()
       in
       let teardown () =
         Sysio.unwatch sio_s conn;
         Sysio.close conn
       in
       Sysio.watch sio_s conn (function
         | Tcp.Readable -> pump (); flush ()
         | Tcp.Writable -> flush ()
         | Tcp.Peer_closed -> pump (); flush (); teardown ()
         | Tcp.Reset -> Sysio.unwatch sio_s conn
         | Tcp.Established -> ());
       (* Edge-triggered catch-up: events that fired between [Established]
          and this accept callback landed before the watch. *)
       if Sysio.readable_bytes conn > 0 then begin
         pump ();
         flush ()
       end;
       if Sysio.peer_closed conn then teardown ());
  let established = ref 0 and served = ref 0 and aborted = ref 0 in
  let rec dial ~size ~rejoin =
    let sent = ref 0 and got = ref 0 in
    let payload = Bb.create bufsize in
    let push cn =
      let continue = ref true in
      while !sent < size && !continue do
        let n = min (size - !sent) (Bb.length payload) in
        let w = Sysio.write cn (Bb.sub payload 0 n) in
        if w = 0 then continue := false else sent := !sent + w
      done
    in
    ignore
      (Sysio.connect ~sndbuf:bufsize ~rcvbuf:bufsize sio_c st_c
         ~dst:(Node.id s) ~port (fun cn ev ->
             match ev with
             | Tcp.Established ->
               incr established;
               push cn
             | Tcp.Writable -> push cn
             | Tcp.Readable ->
               let rec drain () =
                 match Sysio.read cn ~max:bufsize with
                 | None -> ()
                 | Some b ->
                   got := !got + Bb.length b;
                   drain ()
               in
               drain ();
               if !got >= size then begin
                 incr served;
                 Sysio.unwatch sio_c cn;
                 Sysio.close cn;
                 if rejoin then dial ~size ~rejoin:false
               end
             | Tcp.Peer_closed ->
               Sysio.unwatch sio_c cn;
               Sysio.close cn
             | Tcp.Reset -> Sysio.unwatch sio_c cn))
  in
  for i = 0 to n_storm - 1 do
    dial ~size:(256 + (160 * i)) ~rejoin:(i < n_rejoin)
  done;
  for _ = 1 to n_abort do
    let cn =
      Sysio.connect ~sndbuf:bufsize ~rcvbuf:bufsize sio_c st_c
        ~dst:(Node.id s) ~port (fun _ _ -> ())
    in
    (* 1 us is far below the LAN round-trip: the RST overtakes the
       handshake, a genuine mid-dial disconnect. *)
    Clock.after (Node.clock c) (Time.us 1) (fun () ->
        Sysio.abort cn;
        Sysio.unwatch sio_c cn;
        incr aborted)
  done;
  Padico.run grid ~until:(Time.sec 60);
  let want = n_storm + n_rejoin in
  if !established <> want then
    failf "established %d of %d connections" !established want;
  if !served <> want then failf "served %d of %d echo requests" !served want;
  if !aborted <> n_abort then
    failf "fired %d of %d mid-handshake aborts" !aborted n_abort;
  List.iter
    (fun (sio, who) ->
       let live = Sysio.conn_count sio in
       if live <> 0 then
         failf "%s still holds %d live connections after full churn" who live;
       let resident = Sysio.bytes_resident sio in
       if resident <> 0 then
         failf "%s still holds %d resident bytes after full churn" who
           resident)
    [ (sio_s, "server"); (sio_c, "client") ];
  if Sysio.conns_reaped sio_s < n_storm then
    failf "server reaped only %d connections (want >= %d)"
      (Sysio.conns_reaped sio_s) n_storm;
  List.iter
    (fun (n, who) ->
       let core = Na.get n in
       let depth = Na.ready_depth core in
       if depth <> 0 then
         failf "%s readiness queue not drained: depth %d of %d sources" who
           depth (Na.source_count core))
    [ (s, "server"); (c, "client") ]

(* ---------- demo ordering bug (guarded) ---------- *)

(* A deliberate register-after-dispatch bug in miniature, compiled in but
   only registered when [demo] is requested: handler registration and
   message delivery are scheduled at the same instant, so any non-FIFO
   schedule can dispatch the delivery first and drop the message. Used to
   prove the harness catches this bug class and that its replay token
   reproduces the failure. *)
let demo_ordering policy =
  let sim = Sim.create () in
  Sim.set_policy sim policy;
  let delivered = ref false in
  let handler = ref None in
  Sim.after sim (Time.us 10) (fun () ->
      Sim.after sim 0 (fun () ->
          handler := Some (fun () -> delivered := true));
      Sim.after sim 0 (fun () ->
          match !handler with Some f -> f () | None -> ()));
  Sim.run sim;
  if not !delivered then
    failf "message dispatched before its handler was registered"

(* ---------- case registry ---------- *)

type case = {
  case_name : string;
  run : plan:Padico_fault.Plan.t option -> Engine.Sim.policy -> unit;
}

let apply_plan grid = function
  | None -> ()
  | Some p -> ignore (Padico_fault.Inject.apply (Padico.net grid) p)

let cases ?(demo = false) () =
  let vlink =
    List.concat_map
      (fun fx ->
         List.filter_map
           (fun ob ->
              if List.mem ob.oname fx.skip then None
              else
                Some
                  { case_name = fx.fname ^ "/" ^ ob.oname;
                    run =
                      (fun ~plan policy ->
                         let env = fx.build () in
                         Sim.set_policy (Padico.sim env.grid) policy;
                         apply_plan env.grid plan;
                         ob.run env) })
           vlink_obligations)
      vlink_fixtures
  in
  let circuit =
    List.concat_map
      (fun fx ->
         List.map
           (fun ob ->
              { case_name = fx.cname ^ "/" ^ ob.ct_oname;
                run =
                  (fun ~plan policy ->
                     let env = fx.cbuild () in
                     Sim.set_policy (Padico.sim env.cgrid) policy;
                     apply_plan env.cgrid plan;
                     ob.ct_run env) })
           ct_obligations)
      ct_fixtures
  in
  let coll =
    List.concat_map
      (fun fx ->
         List.map
           (fun ob ->
              { case_name = fx.gname ^ "/" ^ ob.coname;
                run =
                  (fun ~plan policy ->
                     let env = fx.gbuild () in
                     Sim.set_policy (Padico.sim env.ggrid) policy;
                     apply_plan env.ggrid plan;
                     ob.corun env) })
           coll_obligations)
      coll_fixtures
  in
  let coll_fault =
    [ { case_name = "coll-fault/wan-down";
        run = (fun ~plan policy -> coll_wan_down ~plan policy) } ]
  in
  let coll_heal_cases =
    List.concat_map
      (fun (sname, strategy) ->
         List.concat_map
           (fun (vname, victim) ->
              List.map
                (fun opname ->
                   { case_name =
                       Printf.sprintf "coll-heal/%s-%s-%s" sname opname vname;
                     run =
                       (fun ~plan policy ->
                          coll_heal ~strategy ~victim ~opname ~plan policy) })
                coll_heal_ops)
           [ ("leaf", 3); ("proxy", 2) ])
      [ ("ml", Group.Multilevel); ("flat", Group.Flat) ]
  in
  let chaos_cases =
    [ { case_name = "coll-chaos/storm";
        run = (fun ~plan policy -> coll_chaos ~plan policy) } ]
  in
  let resilient_fault =
    [ { case_name = "resilient-fault/exhaustion";
        run = (fun ~plan policy -> resilient_exhausted ~plan policy) } ]
  in
  let edge_cases =
    [ { case_name = "edge-churn/storm";
        run = (fun ~plan policy -> edge_churn ~plan policy) } ]
  in
  let demo_cases =
    if demo then
      [ { case_name = "demo/ordering";
          run = (fun ~plan:_ policy -> demo_ordering policy) } ]
    else []
  in
  vlink @ circuit @ coll @ coll_fault @ coll_heal_cases @ chaos_cases
  @ resilient_fault @ edge_cases @ demo_cases

(* The host-backend subset: the same obligations, real sockets. Only the
   fixtures whose transports exist on the host qualify (loopback's
   in-process rendezvous and SysIO over Hostio streams); schedule policies
   belong to the simulator and are ignored — the OS provides the
   nondeterminism instead. *)
let host_fixtures =
  [ { fname = "loopback"; skip = [];
      build = (fun () -> loopback_env ~backend:Padico.Host ()) };
    { fname = "sysio"; skip = [];
      build =
        (fun () ->
           pair_env ~model:Presets.ethernet100 ~prefs:bare_prefs
             ~backend:Padico.Host ~expect_driver:"sysio" ()) } ]

let host_cases () =
  List.concat_map
    (fun fx ->
       List.filter_map
         (fun ob ->
            if List.mem ob.oname fx.skip then None
            else
              Some
                { case_name = "host/" ^ fx.fname ^ "/" ^ ob.oname;
                  run =
                    (fun ~plan _policy ->
                       let env = fx.build () in
                       apply_plan env.grid plan;
                       ob.run env) })
         vlink_obligations)
    host_fixtures

let adapters_covered = List.length vlink_fixtures

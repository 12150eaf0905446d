module Prefs = Prefs
module Netdb = Netdb

type filter =
  | Adoc of { link_bandwidth_bps : float }
  | Cipher of { key : string }

type choice = {
  driver : string;
  segment : Simnet.Segment.t option;
  streams : int;
  filters : filter list;
  vrp_tolerance : float;
}

(* The one wrap decision, shared by the connecting side ([choose]) and the
   accepting side ([Padico.listen]): filters stack on the stream drivers
   only, AdOC under the cipher so the cipher sees compressed bytes. *)
let filters prefs (m : Simnet.Linkmodel.t) ~driver =
  match driver with
  | "sysio" | "pstream" ->
    (if prefs.Prefs.adoc_on_slow
        && m.Simnet.Linkmodel.bandwidth_bps <= prefs.Prefs.adoc_threshold_bps
     then [ Adoc { link_bandwidth_bps = m.Simnet.Linkmodel.bandwidth_bps } ]
     else [])
    @
    if prefs.Prefs.cipher_untrusted && not m.Simnet.Linkmodel.trusted then
      [ Cipher { key = prefs.Prefs.cipher_key } ]
    else []
  | _ -> []

let plain ?segment driver =
  { driver; segment; streams = 1; filters = []; vrp_tolerance = 0.0 }

let is_adoc = function Adoc _ -> true | Cipher _ -> false

(* Record the decision: a selection-layer trace event on the source node and
   a global per-driver decision count in the metrics registry. [rule] names
   the knowledge-base rule that fired, so traces explain *why* a link was
   mapped onto a given adapter stack. *)
let observe ~src ~dst ~rule choice =
  Engine.Stats.Counter.incr
    (Padico_obs.Metrics.counter Padico_obs.Metrics.Global
       ("selector.choice." ^ choice.driver));
  if Padico_obs.Trace.on () then
    Padico_obs.Trace.instant src
      (Padico_obs.Event.Choice
         { src = Simnet.Node.name src; dst = Simnet.Node.name dst;
           driver = choice.driver; rule; streams = choice.streams;
           adoc = List.exists is_adoc choice.filters;
           crypto = List.exists (fun f -> not (is_adoc f)) choice.filters });
  choice

let choose ?(prefs = Prefs.default) ?(exclude = []) net ~src ~dst =
  if Simnet.Node.uid src = Simnet.Node.uid dst then
    observe ~src ~dst ~rule:"loopback" (plain "loopback")
  else begin
    let all = Simnet.Net.links_between net src dst in
    (* Dynamic re-selection: a segment whose carrier is down, or that the
       caller has blacklisted after a failure, is not a candidate. *)
    let usable =
      List.filter
        (fun s ->
           (not (Simnet.Segment.is_down s src))
           && not
                (List.exists
                   (fun e -> Simnet.Segment.uid e = Simnet.Segment.uid s)
                   exclude))
        all
    in
    match usable with
    | [] ->
      if all = [] then
        failwith
          (Printf.sprintf "Selector: no common network between %s and %s"
             (Simnet.Node.name src) (Simnet.Node.name dst))
      else
        failwith
          (Printf.sprintf
             "Selector: no usable network between %s and %s (all links \
              down or excluded)"
             (Simnet.Node.name src) (Simnet.Node.name dst))
    | best :: _ as links ->
      let model s = Simnet.Segment.model s in
      (* Prefer a SAN when present, even if not the top bandwidth. *)
      let san =
        List.find_opt
          (fun s -> (model s).Simnet.Linkmodel.class_ = Simnet.Linkmodel.San)
          links
      in
      (match san with
       | Some s -> observe ~src ~dst ~rule:"san" (plain ~segment:s "madio")
       | None ->
         let m = model best in
         let rule, base =
           match m.Simnet.Linkmodel.class_ with
           | Simnet.Linkmodel.Lossy_wan when prefs.Prefs.vrp_on_lossy ->
             ( "vrp-lossy",
               { (plain ~segment:best "vrp") with
                 vrp_tolerance = prefs.Prefs.vrp_tolerance } )
           | Simnet.Linkmodel.Wan when prefs.Prefs.pstream_on_wan ->
             ( "pstream-wan",
               { (plain ~segment:best "pstream") with
                 streams = prefs.Prefs.pstream_streams } )
           | Simnet.Linkmodel.San | Simnet.Linkmodel.Lan
           | Simnet.Linkmodel.Wan | Simnet.Linkmodel.Lossy_wan
           | Simnet.Linkmodel.Loop ->
             ("default", plain ~segment:best "sysio")
         in
         observe ~src ~dst ~rule
           { base with filters = filters prefs m ~driver:base.driver })
  end

let pp_choice fmt c =
  Format.fprintf fmt "%s%s%s%s" c.driver
    (match c.segment with
     | Some s -> Printf.sprintf " via %s" (Simnet.Segment.name s)
     | None -> "")
    (if c.streams > 1 then Printf.sprintf " x%d" c.streams else "")
    (String.concat ""
       (List.map (fun f -> if is_adoc f then " +adoc" else " +crypto")
          c.filters))

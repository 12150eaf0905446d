module Registry = Registry
module Net = Simnet.Net
module Node = Simnet.Node
module Segment = Simnet.Segment
module Linkmodel = Simnet.Linkmodel
module Sysio = Netaccess.Sysio
module Madio = Netaccess.Madio
module Vl = Vlink.Vl
module Ct = Circuit.Ct
module Prefs = Selector.Prefs
module Sel = Selector

let log = Logs.Src.create "padico"

module Log = (val Logs.src_log log : Logs.LOG)

type backend = Sim | Host

type t = {
  pnet : Net.t;
  pbackend : backend;
  ploop : Hostio.Loop.t option; (* the reactor when [pbackend = Host] *)
  mutable pprefs : Prefs.t;
  mutable next_lchan : int; (* MadIO logical channels for circuits *)
  mutable next_circuit_port : int;
  mutable relays : Node.t list; (* gateways running the relay service *)
}

let pstream_port_offset = 10_000

let vrp_port_offset = 20_000

let register_builtins () =
  let e name kind description paradigm =
    Registry.register { Registry.name; kind; description; paradigm }
  in
  e "gm" Registry.Driver "GM-like SAN message driver" `Parallel;
  e "tcp" Registry.Driver "TCP reliable stream" `Distributed;
  e "udp" Registry.Driver "UDP datagrams" `Distributed;
  e "madeleine" Registry.Driver "Madeleine portable SAN library" `Parallel;
  e "madio" Registry.Adapter "NetAccess multiplexed SAN access" `Both;
  e "sysio" Registry.Adapter "NetAccess arbitrated socket access" `Both;
  e "loopback" Registry.Adapter "intra-node adapter" `Both;
  e "pstream" Registry.Adapter "parallel TCP streams on WAN" `Distributed;
  e "adoc" Registry.Adapter "adaptive online compression" `Distributed;
  e "vrp" Registry.Adapter "tunable-loss datagram stream" `Distributed;
  e "crypto" Registry.Adapter "cipher on untrusted links" `Distributed;
  e "vio" Registry.Personality "socket-like API over VLink" `Distributed;
  e "syswrap" Registry.Personality "100% socket-compliant wrapper" `Distributed;
  e "aio" Registry.Personality "POSIX.2 asynchronous I/O" `Distributed;
  e "fm" Registry.Personality "FastMessage 2.0 API over Circuit" `Parallel;
  e "madpers" Registry.Personality "virtual Madeleine over Circuit" `Parallel

let create ?seed ?(prefs = Prefs.default) ?(backend = Sim) ?shards () =
  register_builtins ();
  (match backend, shards with
   | Host, Some n when n > 1 ->
     invalid_arg
       "Padico.create: ~shards needs the simulated backend (the Host \
        reactor runs on one real clock; conservative synchronization \
        does not apply)"
   | _ -> ());
  let ploop, clock =
    match backend with
    | Sim -> (None, None)
    | Host ->
      let l = Hostio.Loop.create () in
      (Some l, Some (Hostio.Loop.clock l))
  in
  { pnet = Net.create ?seed ?clock ?shards (); pbackend = backend; ploop;
    pprefs = prefs; next_lchan = 1; next_circuit_port = 7_000; relays = [] }

let net t = t.pnet
let sim t = Net.sim t.pnet
let backend t = t.pbackend
let loop t = t.ploop
let prefs t = t.pprefs
let set_prefs t p = t.pprefs <- p

let add_node ?shard t name = Net.add_node ?shard t.pnet name

let add_segment t model ?name nodes = Net.add_segment t.pnet model ?name nodes

let sysio node = Sysio.get node

let madio _t node seg = Madio.init (Madeleine.Mad.init seg node)

let is_san seg =
  (Segment.model seg).Linkmodel.class_ = Linkmodel.San

let is_ip seg =
  match (Segment.model seg).Linkmodel.class_ with
  | Linkmodel.Lan | Linkmodel.Wan | Linkmodel.Lossy_wan -> true
  | Linkmodel.San | Linkmodel.Loop -> false

let node_segments t node = Net.segments_of t.pnet node

let wrap_by_policy t seg vl =
  let m = Segment.model seg in
  let p = t.pprefs in
  let vl =
    if p.Prefs.adoc_on_slow
       && m.Linkmodel.bandwidth_bps <= p.Prefs.adoc_threshold_bps
    then Vlink.Vl_adoc.wrap ~link_bandwidth_bps:m.Linkmodel.bandwidth_bps vl
    else vl
  in
  if p.Prefs.cipher_untrusted && not m.Linkmodel.trusted then
    Vlink.Vl_crypto.wrap ~key:(Methods.Crypto.key_of_string p.Prefs.cipher_key)
      vl
  else vl

let listen t node ~port accept =
  Vlink.Vl_loopback.listen node ~port accept;
  List.iter
    (fun seg ->
       (* On the host backend every non-loop segment carries real stream
          sockets: SANs have no MadIO rendezvous and datagrams no UDP
          driver, so both collapse onto SysIO. *)
       if is_san seg && t.pbackend = Sim then
         Vlink.Vl_madio.listen (madio t node seg) ~port accept
       else if is_ip seg || (is_san seg && t.pbackend = Host) then begin
         let sio = sysio node in
         let stack = Sysio.stack_on sio seg in
         let accept_wrapped vl = accept (wrap_by_policy t seg vl) in
         Vlink.Vl_sysio.listen sio stack ~port accept_wrapped;
         Vlink.Vl_pstream.listen sio stack ~port:(port + pstream_port_offset)
           accept_wrapped;
         if t.pbackend = Sim then begin
           let udp = Sysio.udp_on sio seg in
           try
             Vlink.Vl_vrp.listen sio udp ~port:(port + vrp_port_offset)
               ~tolerance:t.pprefs.Prefs.vrp_tolerance accept
           with Invalid_argument _ -> ()
         end
       end)
    (node_segments t node)

let connect_choice t ~src ~dst = Sel.choose ~prefs:t.pprefs t.pnet ~src ~dst

(* The selector reasons over the modelled topology; on the host backend
   the SAN driver (MadIO) and the datagram protocol (VRP) have no real
   transport, so their choices are re-targeted to SysIO streams on the
   same segment. Wrapping and striping decisions survive the remap. *)
let remap_for_backend t choice =
  match (t.pbackend, choice.Sel.driver) with
  | Sim, _ | Host, ("loopback" | "sysio" | "pstream") -> choice
  | Host, _ -> { choice with Sel.driver = "sysio" }

let connect_direct t ~src ~dst ~port choice =
  let choice = remap_for_backend t choice in
  Log.debug (fun m ->
      m "connect %s -> %s port %d: %a" (Node.name src) (Node.name dst) port
        Sel.pp_choice choice);
  match (choice.Sel.driver, choice.Sel.segment) with
  | "loopback", _ -> Vlink.Vl_loopback.connect src ~port
  | "madio", Some seg -> Vlink.Vl_madio.connect (madio t src seg) ~dst ~port
  | "pstream", Some seg ->
    let sio = sysio src in
    let stack = Sysio.stack_on sio seg in
    let vl =
      Vlink.Vl_pstream.connect sio stack ~dst:(Node.id dst)
        ~port:(port + pstream_port_offset) ~streams:choice.Sel.streams
    in
    let vl =
      if choice.Sel.wrap_adoc then
        Vlink.Vl_adoc.wrap
          ~link_bandwidth_bps:(Segment.model seg).Linkmodel.bandwidth_bps vl
      else vl
    in
    if choice.Sel.wrap_crypto then
      Vlink.Vl_crypto.wrap
        ~key:(Methods.Crypto.key_of_string t.pprefs.Prefs.cipher_key) vl
    else vl
  | "vrp", Some seg ->
    let sio = sysio src in
    let udp = Sysio.udp_on sio seg in
    Vlink.Vl_vrp.connect sio udp ~dst:(Node.id dst)
      ~port:(port + vrp_port_offset) ~tolerance:choice.Sel.vrp_tolerance
      ~rate_bps:((Segment.model seg).Linkmodel.bandwidth_bps *. 0.95)
  | "sysio", Some seg ->
    let sio = sysio src in
    let stack = Sysio.stack_on sio seg in
    let vl = Vlink.Vl_sysio.connect sio stack ~dst:(Node.id dst) ~port in
    let vl =
      if choice.Sel.wrap_adoc then
        Vlink.Vl_adoc.wrap
          ~link_bandwidth_bps:(Segment.model seg).Linkmodel.bandwidth_bps vl
      else vl
    in
    if choice.Sel.wrap_crypto then
      Vlink.Vl_crypto.wrap
        ~key:(Methods.Crypto.key_of_string t.pprefs.Prefs.cipher_key) vl
    else vl
  | driver, _ ->
    failwith (Printf.sprintf "Padico.connect: unknown driver %S" driver)

(* ---------- relay tunnels (the paper's future work: "tunnels for
   full-connectivity through firewalls") ---------- *)

let relay_port = 7

(* Copy bytes from [src] to [dst] until EOF, then close the sink. *)
let splice node src dst =
  ignore
    (Simnet.Node.spawn node ~name:"relay-pump" (fun () ->
         let buf = Engine.Bytebuf.create 65_536 in
         let rec pump () =
           match Vl.await (Vl.post_read src buf) with
           | Vl.Done n ->
             (match
                Vl.await (Vl.post_write dst (Engine.Bytebuf.sub buf 0 n))
              with
              | Vl.Done _ -> pump ()
              | Vl.Again | Vl.Eof | Vl.Error _ -> Vl.close src)
           | Vl.Again | Vl.Eof | Vl.Error _ -> Vl.close dst
         in
         pump ()))

let rec connect_via_relay t ~src ~dst ~port =
  let reaches r other =
    Node.uid r = Node.uid other
    || Net.links_between t.pnet r other <> []
  in
  match
    List.find_opt (fun r -> reaches r src && reaches r dst) t.relays
  with
  | None ->
    failwith
      (Printf.sprintf
         "Padico.connect: no common network and no relay between %s and %s"
         (Node.name src) (Node.name dst))
  | Some gateway ->
    let vl = connect t ~src ~dst:gateway ~port:relay_port in
    (* CONNECT preamble: target node id and port. *)
    let hdr = Engine.Bytebuf.create 8 in
    Engine.Bytebuf.set_u32 hdr 0 (Node.id dst);
    Engine.Bytebuf.set_u32 hdr 4 port;
    ignore (Vl.post_write vl hdr);
    vl

and start_relay t node =
  if not (List.exists (fun r -> Node.uid r = Node.uid node) t.relays) then begin
    t.relays <- node :: t.relays;
    listen t node ~port:relay_port (fun inbound ->
        ignore
          (Simnet.Node.spawn node ~name:"relay" (fun () ->
               let hdr = Engine.Bytebuf.create 8 in
               let rec read_hdr filled =
                 if filled >= 8 then true
                 else
                   match
                     Vl.await
                       (Vl.post_read inbound
                          (Engine.Bytebuf.sub hdr filled (8 - filled)))
                   with
                   | Vl.Done n -> read_hdr (filled + n)
                   | Vl.Again | Vl.Eof | Vl.Error _ -> false
               in
               if read_hdr 0 then begin
                 let dst_id = Engine.Bytebuf.get_u32 hdr 0 in
                 let dst_port = Engine.Bytebuf.get_u32 hdr 4 in
                 match Net.node_by_id t.pnet dst_id with
                 | None -> Vl.close inbound
                 | Some target ->
                   let outbound = connect t ~src:node ~dst:target ~port:dst_port in
                   (match Vl.await_connected outbound with
                    | Ok () ->
                      splice node inbound outbound;
                      splice node outbound inbound
                    | Error _ -> Vl.close inbound)
               end)))
  end

and connect t ~src ~dst ~port =
  match connect_choice t ~src ~dst with
  | choice -> connect_with_choice t ~src ~dst ~port choice
  | exception Failure _ -> connect_via_relay t ~src ~dst ~port

and connect_with_choice t ~src ~dst ~port choice =
  connect_direct t ~src ~dst ~port choice

(* ---------- circuits ---------- *)

let circuit t ~name nodes =
  let group = Array.of_list nodes in
  let n = Array.length group in
  if n = 0 then invalid_arg "Padico.circuit: empty group";
  let lchan = t.next_lchan in
  t.next_lchan <- t.next_lchan + 1;
  if t.next_lchan >= 0xFFF0 then invalid_arg "Padico.circuit: out of channels";
  let port_base = t.next_circuit_port in
  (* one shared TCP port + one pstream port per directed pair *)
  t.next_circuit_port <- t.next_circuit_port + 1 + (n * n);
  let cts = Array.init n (fun rank -> Ct.create ~group ~rank ~name) in
  let index = Circuit.Ct_madio.index group in
  let pair_port i j = port_base + 1 + (i * n) + j in
  for i = 0 to n - 1 do
    let node_i = group.(i) in
    (* Rank the member's segments once; each peer goes to the first SAN
       they share, else to the first (fastest) shared segment. *)
    let segs = Array.of_list (Net.ranked_segments_of t.pnet node_i) in
    let nsegs = Array.length segs in
    let ranks = Array.make nsegs [] in
    for j = 0 to n - 1 do
      if j <> i then begin
        let node_j = group.(j) in
        if Node.uid node_i = Node.uid node_j then
          Circuit.Ct_loopback.bind cts.(i) ~dst:j
        else
          let rec pick k best =
            if k = nsegs then best
            else if not (Segment.attached segs.(k) node_j) then
              pick (k + 1) best
            else if is_san segs.(k) then k
            else pick (k + 1) (if best < 0 then k else best)
          in
          match pick 0 (-1) with
          | -1 ->
            failwith
              (Printf.sprintf
                 "Padico.circuit: no common network between %s and %s"
                 (Node.name node_i) (Node.name node_j))
          | k
            when (Segment.model segs.(k)).Linkmodel.class_ = Linkmodel.Wan
                 && t.pprefs.Prefs.pstream_on_wan ->
            (* WAN link: circuit over a parallel-streams VLink. The lower
               rank connects, the higher accepts; the per-pair port
               disambiguates. *)
            let sio = sysio node_i in
            let stack = Sysio.stack_on sio segs.(k) in
            if i < j then begin
              let vl =
                Vlink.Vl_pstream.connect sio stack ~dst:(Node.id node_j)
                  ~port:(pair_port i j) ~streams:t.pprefs.Prefs.pstream_streams
              in
              Circuit.Ct_vlink.bind_link cts.(i) ~dst:j vl
            end
            else
              Vlink.Vl_pstream.listen sio stack ~port:(pair_port j i)
                (fun vl -> Circuit.Ct_vlink.bind_link cts.(i) ~dst:j vl)
          | k -> ranks.(k) <- j :: ranks.(k)
      end
    done;
    (* One adapter per (member, segment) binding. On the host backend the
       SAN pairs ride SysIO streams too. *)
    Array.iteri
      (fun k -> function
         | [] -> ()
         | ranks when is_san segs.(k) && t.pbackend = Sim ->
           Circuit.Ct_madio.bind cts.(i) (madio t node_i segs.(k)) ~index
             ~lchannel_id:lchan ~ranks
         | ranks ->
           let sio = sysio node_i in
           Circuit.Ct_sysio.bind cts.(i) sio (Sysio.stack_on sio segs.(k))
             ~port:port_base ~ranks)
      ranks
  done;
  cts

let run ?until ?domains t =
  match t.ploop with
  | None -> Net.run ?until ?domains t.pnet
  | Some l ->
    (match domains with
     | Some d when d > 1 ->
       invalid_arg "Padico.run: ~domains needs the simulated backend"
     | _ -> ());
    Hostio.Loop.run ?until_ns:until l

let now t =
  match t.ploop with
  | Some _ -> Engine.Clock.now (Net.clock t.pnet)
  | None -> Net.now t.pnet

let reset () = Engine.Lifecycle.reset_registries ()

let spawn t node ?name f = Net.spawn t.pnet node ?name f

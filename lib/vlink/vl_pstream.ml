module Bytebuf = Engine.Bytebuf
module Tcp = Drivers.Tcp
module Sysio = Netaccess.Sysio

let log = Logs.Src.create "vlink.pstream"

module Log = (val Logs.src_log log : Logs.LOG)

let driver_name = "pstream"

module Trace = Padico_obs.Trace

let trace_adapter node dir bytes =
  if Trace.on () then
    Trace.instant node
      (Padico_obs.Event.Adapter { adapter = driver_name; dir; bytes })

let default_block = 16_384

(* Stream-member handshake: HELLO [u32 session | u16 index | u16 n].
   Data framing on each member: [u32 seq | u32 len | bytes]. *)
let hello_len = 8

let frame_hdr = 8

type member = {
  conn : Sysio.conn;
  pending : Streamq.t; (* unparsed inbound bytes *)
  mutable want : (int * int) option; (* parsed frame header: seq, len *)
}

type link = {
  lnode : Simnet.Node.t;
  members : member array;
  mutable vl : Vl.t option;
  mutable next_tx_seq : int;
  mutable rr : int; (* round-robin cursor *)
  mutable next_rx_seq : int;
  reorder : (int, Bytebuf.t) Hashtbl.t;
  rx : Streamq.t;
  mutable closed : bool;
  mutable peer_closed_members : int;
  mutable rx_paused : bool;
      (* member draining parked: reassembled bytes over the high
         watermark. Unread bytes stay in each member's TCP receive queue,
         so every member's advertised window closes — backpressure across
         all stripes at once. *)
}

let notify l ev = match l.vl with Some vl -> Vl.notify vl ev | None -> ()

let trace_flow l action =
  if Trace.on () then
    Trace.instant l.lnode
      (Padico_obs.Event.Flow
         { action; place = driver_name; bytes = Streamq.length l.rx })

let deliver_in_order l =
  let progress = ref true in
  while !progress do
    match Hashtbl.find_opt l.reorder l.next_rx_seq with
    | Some chunk ->
      Hashtbl.remove l.reorder l.next_rx_seq;
      trace_adapter l.lnode Padico_obs.Event.Unwrap (Bytebuf.length chunk);
      Streamq.push l.rx chunk;
      l.next_rx_seq <- l.next_rx_seq + 1
    | None -> progress := false
  done

(* Parse complete frames buffered on one member. *)
let parse_member l m =
  let made_data = ref false in
  let continue = ref true in
  while !continue do
    match m.want with
    | None ->
      if Streamq.length m.pending >= frame_hdr then begin
        let hdr = Streamq.pop_exact m.pending frame_hdr in
        m.want <- Some (Bytebuf.get_u32 hdr 0, Bytebuf.get_u32 hdr 4)
      end
      else continue := false
    | Some (seq, len) ->
      if Streamq.length m.pending >= len then begin
        let body = Streamq.pop_exact m.pending len in
        m.want <- None;
        Hashtbl.replace l.reorder seq body;
        made_data := true
      end
      else continue := false
  done;
  if !made_data then begin
    deliver_in_order l;
    if not (Streamq.is_empty l.rx) then notify l Vl.Readable
  end

let drain_member l m =
  if Streamq.above_high l.rx then begin
    if not l.rx_paused then begin
      l.rx_paused <- true;
      trace_flow l "pause"
    end
  end
  else begin
    let rec drain () =
      match Sysio.read m.conn ~max:65_536 with
      | Some data ->
        Streamq.push m.pending data;
        drain ()
      | None -> ()
    in
    drain ();
    parse_member l m
  end

let resume_members l =
  if l.rx_paused && Streamq.below_low l.rx then begin
    l.rx_paused <- false;
    trace_flow l "resume";
    Array.iter (fun m -> drain_member l m) l.members
  end

let member_event l m = function
  | Tcp.Readable -> drain_member l m
  | Tcp.Writable -> notify l Vl.Writable
  | Tcp.Peer_closed ->
    l.peer_closed_members <- l.peer_closed_members + 1;
    if l.peer_closed_members = Array.length l.members then
      notify l Vl.Peer_closed
  | Tcp.Reset -> notify l (Vl.Failed "stream member reset")
  | Tcp.Established -> ()

let default_rx_high = 262_144

let make_link lnode members =
  { lnode; members; vl = None; next_tx_seq = 0; rr = 0; next_rx_seq = 0;
    reorder = Hashtbl.create 64;
    rx = Streamq.create ~high:default_rx_high ~low:(default_rx_high / 4) ();
    closed = false; peer_closed_members = 0; rx_paused = false }

let aggregate_write_space l =
  Array.fold_left
    (fun acc m -> acc + max 0 (Sysio.write_space m.conn - frame_hdr))
    0 l.members

let ops l =
  { Vl.o_write =
      (fun buf ->
         if l.closed then 0
         else begin
           (* Stripe in blocks, round-robin across members with space: the
              aggregate of n congestion windows is the point. *)
           let total = Bytebuf.length buf in
           trace_adapter l.lnode Padico_obs.Event.Wrap total;
           let sent = ref 0 in
           let stalled = ref 0 in
           let n = Array.length l.members in
           while !sent < total && !stalled < n do
             let m = l.members.(l.rr) in
             l.rr <- (l.rr + 1) mod n;
             let block = min default_block (total - !sent) in
             if Sysio.write_space m.conn >= block + frame_hdr then begin
               stalled := 0;
               let hdr = Bytebuf.create frame_hdr in
               Bytebuf.set_u32 hdr 0 l.next_tx_seq;
               Bytebuf.set_u32 hdr 4 block;
               l.next_tx_seq <- l.next_tx_seq + 1;
               ignore
                 (Sysio.writev m.conn [ hdr; Bytebuf.sub buf !sent block ]);
               sent := !sent + block
             end
             else incr stalled
           done;
           !sent
         end);
    o_read =
      (fun ~max ->
         let r = Streamq.pop l.rx ~max in
         resume_members l;
         r);
    o_readable = (fun () -> Streamq.length l.rx);
    o_write_space = (fun () -> if l.closed then 0 else aggregate_write_space l);
    o_close =
      (fun () ->
         l.closed <- true;
         Array.iter (fun m -> Sysio.close m.conn) l.members);
    o_driver = driver_name }

let connect sio stack ~dst ~port ~streams =
  if streams < 1 then invalid_arg "Vl_pstream.connect: streams must be >= 1";
  let vl = Vl.create (Sysio.stack_node stack) in
  let session =
    Hashtbl.hash (Simnet.Node.uid (Sysio.stack_node stack), dst, port, streams)
  in
  let established = ref 0 in
  let members : member option array = Array.make streams None in
  let link = ref None in
  for i = 0 to streams - 1 do
    (* No event fires synchronously inside connect: the member cell is
       always filled before its first callback runs. *)
    let conn =
      Sysio.connect sio stack ~dst ~port (fun conn ev ->
          match ev with
          | Tcp.Established ->
            let hello = Bytebuf.create hello_len in
            Bytebuf.set_u32 hello 0 session;
            Bytebuf.set_u16 hello 4 i;
            Bytebuf.set_u16 hello 6 streams;
            ignore (Sysio.write conn hello);
            incr established;
            if !established = streams then begin
              let ms =
                Array.map
                  (function Some m -> m | None -> assert false)
                  members
              in
              let l = make_link (Sysio.stack_node stack) ms in
              l.vl <- Some vl;
              link := Some l;
              Vl.attach_ops vl (ops l);
              Array.iter (fun m -> drain_member l m) ms
            end
          | ev ->
            (match (!link, members.(i)) with
             | Some l, Some m -> member_event l m ev
             | _, _ ->
               if ev = Tcp.Reset then
                 Vl.notify vl (Vl.Failed "stream member reset")))
    in
    members.(i) <- Some { conn; pending = Streamq.create (); want = None }
  done;
  vl

(* Server side: group incoming members by session id. *)
type pending_session = { mutable got : (int * Sysio.conn) list; mutable expected : int }

let listen sio stack ~port accept =
  let sessions : (int, pending_session) Hashtbl.t = Hashtbl.create 8 in
  Sysio.listen sio stack ~port (fun conn ->
      let hello = ref None in
      let handle ev =
          match (ev, !hello) with
          | Tcp.Readable, None when Sysio.readable_bytes conn >= hello_len ->
            (match Sysio.read conn ~max:hello_len with
             | Some h ->
               let session = Bytebuf.get_u32 h 0 in
               let index = Bytebuf.get_u16 h 4 in
               let n = Bytebuf.get_u16 h 6 in
               hello := Some (session, index);
               let ps =
                 match Hashtbl.find_opt sessions session with
                 | Some ps -> ps
                 | None ->
                   let ps = { got = []; expected = n } in
                   Hashtbl.replace sessions session ps;
                   ps
               in
               ps.got <- (index, conn) :: ps.got;
               if List.length ps.got = ps.expected then begin
                 Hashtbl.remove sessions session;
                 let sorted =
                   List.sort (fun (a, _) (b, _) -> compare a b) ps.got
                 in
                 let ms =
                   Array.of_list
                     (List.map
                        (fun (_, c) ->
                           { conn = c; pending = Streamq.create ();
                             want = None })
                        sorted)
                 in
                 let l = make_link (Sysio.stack_node stack) ms in
                 let vl = Vl.create_connected (Sysio.stack_node stack) (ops l) in
                 l.vl <- Some vl;
                 Array.iter
                   (fun m -> Sysio.watch sio m.conn (member_event l m))
                   ms;
                 (* Data may already sit behind the HELLOs. *)
                 Array.iter (fun m -> drain_member l m) ms;
                 (* A member FIN processed while its watch still pointed
                    at the HELLO parser was ignored there; [Peer_closed]
                    fires exactly once, so count the missed edges now or
                    the bundle never reports peer death. *)
                 Array.iter
                   (fun m ->
                      if Sysio.peer_closed m.conn then
                        member_event l m Tcp.Peer_closed)
                   ms;
                 accept vl
               end
             | None -> ())
          | _ -> ()
      in
      Sysio.watch sio conn handle;
      (* The accept callback is dispatched through the arbitration core,
         so the HELLO's [Readable] edge may have fired before the watch
         was registered. Poll once: a bundle must form even if the peer
         sends nothing after its HELLOs. *)
      if Sysio.readable_bytes conn >= hello_len then handle Tcp.Readable)

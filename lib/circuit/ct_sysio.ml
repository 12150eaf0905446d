module Bytebuf = Engine.Bytebuf
module Tcp = Drivers.Tcp
module Sysio = Netaccess.Sysio
module Streamq = Vlink.Streamq

let adapter_name = "sysio"

(* Inbound connection: HELLO [u16 src-rank], then frames [u32 len | bytes]. *)

let frame_hdr = 4

type rx_state = {
  pending : Streamq.t;
  mutable src_rank : int option;
  mutable want : int option;
}

let rx_pump ct st conn =
  let rec drain () =
    match Sysio.read conn ~max:65_536 with
    | Some data ->
      Streamq.push st.pending data;
      drain ()
    | None -> ()
  in
  drain ();
  let have n = Streamq.length st.pending >= n in
  let rec decode () =
    match (st.src_rank, st.want) with
    | None, _ when have 2 ->
      st.src_rank <- Some (Bytebuf.get_u16 (Streamq.pop_exact st.pending 2) 0);
      decode ()
    | Some _, None when have frame_hdr ->
      st.want <-
        Some (Bytebuf.get_u32 (Streamq.pop_exact st.pending frame_hdr) 0);
      decode ()
    | Some src, Some len when have len ->
      let payload = Streamq.pop_exact st.pending len in
      st.want <- None;
      Ct.deliver ct ~src payload;
      decode ()
    | _ -> ()
  in
  decode ()

(* Outbound link: lazy connection with an elastic pending queue flushed on
   Writable. *)
type tx_state = {
  outq : Streamq.t;
  mutable conn : Sysio.conn option;
  mutable established : bool;
}

(* One gather-write per flush: everything queued that fits the send
   buffer goes to the transport at once, so a message of many small packed
   pieces leaves as MSS-sized segments, not one segment per piece. *)
let rec tx_flush tx =
  match (tx.conn, tx.established) with
  | Some conn, true ->
    let space = Sysio.write_space conn in
    let rec take room acc =
      match Streamq.pop tx.outq ~max:room with
      | Some chunk -> take (room - Bytebuf.length chunk) (chunk :: acc)
      | None -> (space - room, List.rev acc)
    in
    let len, iov = take space [] in
    if len > 0 then begin
      let n = Sysio.writev conn iov in
      (* [space] bounds the pops, so the write cannot be partial. *)
      assert (n = len);
      if not (Streamq.is_empty tx.outq) then tx_flush tx
    end
  | _ -> ()

let bind ct sio stack ~port ~ranks =
  (* Accept side (idempotent: Tcp.listen raises if bound — tolerate). *)
  (try
     Sysio.listen sio stack ~port (fun conn ->
         let st =
           { pending = Streamq.create (); src_rank = None; want = None }
         in
         Sysio.watch sio conn (function
           | Tcp.Readable -> rx_pump ct st conn
           | Tcp.Peer_closed | Tcp.Reset ->
             (* Transport lost after the peer identified itself: report it
                so a failure detector can confirm the death immediately.
                No-op on circuits without a peer-down handler. *)
             (match st.src_rank with
              | Some src -> Ct.peer_down ct ~rank:src
              | None -> ())
           | Tcp.Established | Tcp.Writable -> ());
         (* The accept callback is dispatched through the NetAccess queue,
            so under a connection storm data segments can arrive — and fire
            their Readable events into the not-yet-installed watcher —
            before this handler runs. Drain whatever is already buffered. *)
         rx_pump ct st conn)
   with Invalid_argument _ -> ());
  (* Per-destination queue and connection materialize on first send:
     grid-scale groups bind thousands of links per node while each node
     actually talks to a handful of tree neighbours, so one adapter serves
     the whole binding and per-link state exists only for links in use. *)
  let txs : (int, tx_state) Hashtbl.t = Hashtbl.create 8 in
  let tx_of dst =
    match Hashtbl.find_opt txs dst with
    | Some tx -> tx
    | None ->
      let tx = { outq = Streamq.create (); conn = None; established = false } in
      Hashtbl.replace txs dst tx;
      let dst_node = Simnet.Node.id (Ct.node_of_rank ct dst) in
      let conn =
        Sysio.connect sio stack ~dst:dst_node ~port (fun conn ev ->
            match ev with
            | Tcp.Established ->
              tx.established <- true;
              let hello = Bytebuf.create 2 in
              Bytebuf.set_u16 hello 0 (Ct.rank ct);
              ignore (Sysio.write conn hello);
              tx_flush tx
            | Tcp.Writable -> tx_flush tx
            | Tcp.Peer_closed | Tcp.Reset ->
              tx.established <- false;
              Ct.peer_down ct ~rank:dst
            | Tcp.Readable -> ())
      in
      tx.conn <- Some conn;
      tx
  in
  Ct.set_links ct ~ranks
    { Ct.a_name = adapter_name;
      a_sendv =
        (fun ~dst iov ->
           let tx = tx_of dst in
           let len = List.fold_left (fun a b -> a + Bytebuf.length b) 0 iov in
           let hdr = Bytebuf.create frame_hdr in
           Bytebuf.set_u32 hdr 0 len;
           Streamq.push tx.outq hdr;
           List.iter (Streamq.push tx.outq) iov;
           tx_flush tx) }

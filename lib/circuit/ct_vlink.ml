module Bytebuf = Engine.Bytebuf
module Vl = Vlink.Vl
module Streamq = Vlink.Streamq

let adapter_name = "vlink"

let frame_hdr = 4

(* Restore message boundaries on the VLink byte stream. *)
let rec read_loop ct ~dst vl pending want =
  let buf = Bytebuf.create 65_536 in
  let req = Vl.post_read vl buf in
  Vl.set_handler req (function
    | Vl.Done n ->
      Streamq.push pending (Bytebuf.sub buf 0 n);
      let rec decode () =
        match !want with
        | None when Streamq.length pending >= frame_hdr ->
          want :=
            Some (Bytebuf.get_u32 (Streamq.pop_exact pending frame_hdr) 0);
          decode ()
        | Some len when Streamq.length pending >= len ->
          let payload = Streamq.pop_exact pending len in
          want := None;
          Ct.deliver ct ~src:dst payload;
          decode ()
        | _ -> ()
      in
      decode ();
      read_loop ct ~dst vl pending want
    (* Again never surfaces from blocking posts; treated as EOF-ish stop. *)
    | Vl.Again | Vl.Eof | Vl.Error _ -> ())

let bind_link ct ~dst vl =
  let pending = Streamq.create () in
  let want = ref None in
  let start () = read_loop ct ~dst vl pending want in
  if Vl.is_connected vl then start ()
  else
    Vl.on_event vl (function
      | Vl.Connected -> start ()
      | Vl.Readable | Vl.Writable | Vl.Peer_closed | Vl.Failed _ -> ());
  Ct.set_links ct ~ranks:[ dst ]
    { Ct.a_name = adapter_name;
      a_sendv =
        (fun ~dst:_ iov ->
           let len = List.fold_left (fun a b -> a + Bytebuf.length b) 0 iov in
           let hdr = Bytebuf.create frame_hdr in
           Bytebuf.set_u32 hdr 0 len;
           ignore (Vl.post_write vl hdr);
           List.iter (fun piece -> ignore (Vl.post_write vl piece)) iov) }

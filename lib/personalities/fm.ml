module Bytebuf = Engine.Bytebuf
module Ct = Circuit.Ct

type t = {
  ct : Ct.t;
  handlers : (int, src:int -> Ct.incoming -> unit) Hashtbl.t;
  mutable handled : int;
}

type stream = { out : Ct.outgoing }

let charge ct = Simnet.Node.charge (Ct.node ct) Calib.personality_ns

let attach ct =
  let t = { ct; handlers = Hashtbl.create 16; handled = 0 } in
  Ct.set_recv ct (fun inc ->
      let id = Ct.unpack_int inc in
      match Hashtbl.find_opt t.handlers id with
      | Some h ->
        t.handled <- t.handled + 1;
        h ~src:(Ct.incoming_src inc) inc
      | None -> ());
  t

let register_handler t ~id h = Hashtbl.replace t.handlers id h

let begin_message t ~dest ~handler =
  charge t.ct;
  let out = Ct.begin_packing t.ct ~dst:dest in
  Ct.pack_int out handler;
  { out }

let send_piece st piece = Ct.pack st.out piece

let send_piece_int st v = Ct.pack_int st.out v

let end_message st = Ct.end_packing st.out

let messages_handled t = t.handled

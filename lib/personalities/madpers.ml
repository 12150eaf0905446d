module Bytebuf = Engine.Bytebuf
module Ct = Circuit.Ct
module Proc = Engine.Proc

type mode = Cb of (src:int -> Ct.incoming -> unit) | Queueing

type t = {
  ct : Ct.t;
  inbox : (int * Ct.incoming) Proc.Mailbox.t;
  mutable mode : mode;
}

type outgoing = { out : Ct.outgoing; t : t }

let charge t = Simnet.Node.charge (Ct.node t.ct) Calib.personality_ns

let attach ct =
  let t = { ct; inbox = Proc.Mailbox.create (); mode = Queueing } in
  Ct.set_recv ct (fun inc ->
      match t.mode with
      | Cb f -> f ~src:(Ct.incoming_src inc) inc
      | Queueing -> Proc.Mailbox.send t.inbox (Ct.incoming_src inc, inc));
  t

let circuit t = t.ct
let rank t = Ct.rank t.ct
let size t = Ct.size t.ct

let begin_packing t ~dst =
  charge t;
  { out = Ct.begin_packing t.ct ~dst; t }

let pack o ?(mode = Madeleine.Mad.Send_cheaper) piece =
  let piece =
    match mode with
    | Madeleine.Mad.Send_safer -> Bytebuf.copy piece
    | Madeleine.Mad.Send_later | Madeleine.Mad.Send_cheaper -> piece
  in
  Ct.pack o.out piece

let end_packing o = Ct.end_packing o.out

let set_recv t f = t.mode <- Cb f

let recv_blocking t =
  (match t.mode with
   | Cb _ -> invalid_arg "Madpers.recv_blocking: callback mode active"
   | Queueing -> ());
  Proc.Mailbox.recv t.inbox

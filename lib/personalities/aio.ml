module Vl = Vlink.Vl
module Proc = Engine.Proc

type aiocb = { req : Vl.req; vl : Vl.t }

let charge vl = Simnet.Node.charge (Vl.node vl) Calib.personality_ns

let aio_read vl buf =
  charge vl;
  { req = Vl.post_read vl buf; vl }

let aio_write vl buf =
  charge vl;
  { req = Vl.post_write vl buf; vl }

(* Non-blocking post: the control block is already complete — either
   [Done n] or the EAGAIN marker observable via [aio_error]. *)
let aio_write_nb vl buf =
  charge vl;
  { req = Vl.post_write ~nonblock:true vl buf; vl }

let aio_error cb =
  match Vl.poll cb.req with
  | None -> `In_progress
  | Some (Vl.Done _) | Some Vl.Eof -> `Ok
  | Some Vl.Again -> `Err "EAGAIN"
  | Some (Vl.Error e) -> `Err e

let aio_return cb =
  match Vl.poll cb.req with
  | None -> invalid_arg "Aio.aio_return: operation in progress"
  | Some (Vl.Done n) -> n
  | Some Vl.Eof -> 0
  | Some Vl.Again -> failwith "Aio.aio_return: EAGAIN"
  | Some (Vl.Error e) -> failwith ("Aio.aio_return: " ^ e)

let aio_suspend cbs =
  if cbs = [] then invalid_arg "Aio.aio_suspend: empty list";
  let already_done = List.exists (fun cb -> Vl.poll cb.req <> None) cbs in
  if not already_done then
    Proc.suspend (fun resume ->
        let fired = ref false in
        List.iter
          (fun cb ->
             Vl.set_handler cb.req (fun _ ->
                 if not !fired then begin
                   fired := true;
                   resume ()
                 end))
          cbs)

let aio_cancel_all_noop () = ()

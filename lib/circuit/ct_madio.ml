module Madio = Netaccess.Madio

let adapter_name = "madio"

type index = (int, int) Hashtbl.t

(* Node id -> rank for the receive path (ranks sharing a node: the last). *)
let index group =
  let h = Hashtbl.create (Array.length group) in
  Array.iteri (fun r node -> Hashtbl.replace h (Simnet.Node.id node) r) group;
  h

let bind ct mio ~index ~lchannel_id ~ranks =
  let lchan = Madio.open_lchannel mio ~id:lchannel_id in
  Madio.set_recv lchan (fun ~src payload ->
      match Hashtbl.find_opt index src with
      | Some rank -> Ct.deliver ct ~src:rank payload
      | None -> ());
  Ct.set_links ct ~ranks
    { Ct.a_name = adapter_name;
      a_sendv =
        (fun ~dst iov ->
           Madio.sendv lchan ~dst:(Simnet.Node.id (Ct.node_of_rank ct dst))
             iov) }

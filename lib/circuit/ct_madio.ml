module Madio = Netaccess.Madio

let adapter_name = "madio"

type index = int array

(* Node id -> rank for the receive path (ranks sharing a node: the last;
   -1: not a member). Node ids are dense in their grid. *)
let index group =
  let n =
    Array.fold_left (fun m node -> max m (Simnet.Node.id node + 1)) 0 group
  in
  let a = Array.make n (-1) in
  Array.iteri (fun r node -> a.(Simnet.Node.id node) <- r) group;
  a

let bind ct mio ~index ~lchannel_id ~ranks =
  let lchan = Madio.open_lchannel mio ~id:lchannel_id in
  Madio.set_recv lchan (fun ~src payload ->
      if src >= 0 && src < Array.length index && index.(src) >= 0 then
        Ct.deliver ct ~src:index.(src) payload);
  Ct.set_links ct ~ranks
    { Ct.a_name = adapter_name;
      a_sendv =
        (fun ~dst iov ->
           Madio.sendv lchan ~dst:(Simnet.Node.id (Ct.node_of_rank ct dst))
             iov) }

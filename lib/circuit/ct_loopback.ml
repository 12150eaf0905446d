module Bytebuf = Engine.Bytebuf

let adapter_name = "loopback"

(* Local registry so two circuit instances co-located on one node (distinct
   ranks, same node) can reach each other. *)
let local_instances : (int * string * int, Ct.t) Hashtbl.t = Hashtbl.create 16
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset local_instances)

let register ct =
  Hashtbl.replace local_instances
    (Simnet.Node.uid (Ct.node ct), Ct.name ct, Ct.rank ct)
    ct

let bind ct ~dst =
  register ct;
  let node = Ct.node ct in
  let dst_node = Ct.node_of_rank ct dst in
  if Simnet.Node.uid node <> Simnet.Node.uid dst_node then
    invalid_arg "Ct_loopback.bind: destination rank is on another node";
  let src_rank = Ct.rank ct in
  Ct.set_links ct ~ranks:[ dst ]
    { Ct.a_name = adapter_name;
      a_sendv =
        (fun ~dst iov ->
           let payload = Bytebuf.concat iov in
           Simnet.Node.cpu_async node 300 (fun () ->
               match
                 Hashtbl.find_opt local_instances
                   (Simnet.Node.uid dst_node, Ct.name ct, dst)
               with
               | Some peer -> Ct.deliver peer ~src:src_rank payload
               | None -> ())) }

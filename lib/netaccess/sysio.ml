module Tcp = Drivers.Tcp
module Stats = Engine.Stats
module Clock = Engine.Clock
module Trace = Padico_obs.Trace
module Metrics = Padico_obs.Metrics
module Stream = Hostio.Stream

(* Pending events of one watched connection: a FIFO of 3-bit event
   codes in one int, oldest in the low bits, a zero code ending it.
   [Readable] / [Writable] already pending absorb a new edge of the same
   kind (the callback reads/writes everything available when it runs — "at
   least one delivery after the last event"); lifecycle events keep their
   order. Each lifecycle event fires at most once per connection, so the
   FIFO never holds more than five codes. *)
module Event_fifo = struct
  type t = int

  let empty = 0
  let is_empty q = q = 0

  let code = function
    | Tcp.Established -> 1
    | Tcp.Readable -> 2
    | Tcp.Writable -> 3
    | Tcp.Peer_closed -> 4
    | Tcp.Reset -> 5

  let head q =
    match q land 7 with
    | 1 -> Tcp.Established
    | 2 -> Tcp.Readable
    | 3 -> Tcp.Writable
    | 4 -> Tcp.Peer_closed
    | _ -> Tcp.Reset

  let tail q = q lsr 3

  let push q ev =
    let c = code ev in
    let absorbs = ev = Tcp.Readable || ev = Tcp.Writable in
    let rec go rest shift =
      if rest = 0 then begin
        assert (shift <= Sys.int_size - 4);
        q lor (c lsl shift)
      end
      else if absorbs && rest land 7 = c then q
      else go (rest lsr 3) (shift + 3)
    in
    go q 0
end

type t = {
  sio_node : Simnet.Node.t;
  core : Na_core.t;
  dispatched : Stats.Counter.t;
  mutable sim_stacks : Tcp.stack list; (* for the byte-budget gauges *)
  drain : conn -> unit; (* every watched connection's source drain *)
}

(* A connection on either backend is also its own watcher: its transport
   events accumulate in [w_pending], and its readiness source (a
   closure-free [Na_core.source] pointing back at it) sits on the
   dispatcher's ready list at most once until drained. An unwatched
   connection holds [Na_core.no_source]. *)
and conn = {
  impl : conn_impl;
  mutable w_cb : Tcp.event -> unit;
  mutable w_pending : Event_fifo.t;
  mutable w_src : Na_core.source;
}

and conn_impl =
  | Sim_conn of Tcp.conn
  | Host_conn of host_conn

and host_conn = {
  (* [None] models a refused dial: a SYN answered by RST. *)
  hc_stream : Stream.t option;
  hc_node : Simnet.Node.t;
  mutable hc_dead : bool; (* guards the segment link-state subscription *)
}

let instances : (int, t) Hashtbl.t = Hashtbl.create 16
let registry_lock = Mutex.create ()

let () =
  Engine.Lifecycle.on_reset (fun () ->
      Mutex.protect registry_lock (fun () -> Hashtbl.reset instances))

(* ---------- backends ---------- *)

type stack =
  | Sim_stack of Tcp.stack
  | Host_stack of host_stack

and host_stack = {
  hs_node : Simnet.Node.t;
  hs_seg : Simnet.Segment.t;
  hs_loop : Hostio.Loop.t;
}

let host_stacks : (int * int, host_stack) Hashtbl.t = Hashtbl.create 16
let () = Engine.Lifecycle.on_reset (fun () -> Hashtbl.reset host_stacks)

let stack_on t seg =
  let clk = Simnet.Node.clock t.sio_node in
  if Clock.is_virtual clk then begin
    let st = Tcp.attach seg t.sio_node in
    if not (List.memq st t.sim_stacks) then t.sim_stacks <- st :: t.sim_stacks;
    Sim_stack st
  end
  else
    let key = (Simnet.Node.uid t.sio_node, Simnet.Segment.uid seg) in
    match Hashtbl.find_opt host_stacks key with
    | Some hs -> Host_stack hs
    | None ->
      let loop =
        match Hostio.Loop.of_clock clk with
        | Some l -> l
        | None ->
          invalid_arg
            "Sysio.stack_on: monotonic clock without a Hostio loop"
      in
      let hs = { hs_node = t.sio_node; hs_seg = seg; hs_loop = loop } in
      Hashtbl.replace host_stacks key hs;
      Host_stack hs

let stack_node = function
  | Sim_stack st -> Tcp.node st
  | Host_stack hs -> hs.hs_node

let stack_segment = function
  | Sim_stack st -> Tcp.segment st
  | Host_stack hs -> hs.hs_seg

let tcp_stack = function Sim_stack st -> Some st | Host_stack _ -> None

let udp_on t seg = Drivers.Udp.attach seg t.sio_node

(* Logical (segment, listening node, logical port) -> the real listener,
   whose ephemeral OS port peers actually dial. Segment uids are
   process-unique, so concurrent grids never collide. A reset closes the
   listening sockets: left open, each would keep its loop, and every
   stream that loop watches, reachable for the rest of the process. *)
let rendezvous : (int * int * int, Stream.listener) Hashtbl.t =
  Hashtbl.create 16

let () =
  Engine.Lifecycle.on_reset (fun () ->
      Hashtbl.iter (fun _ l -> Stream.close_listener l) rendezvous;
      Hashtbl.reset rendezvous)

let host_listener_port stack ~port =
  match stack with
  | Sim_stack _ -> None
  | Host_stack hs ->
    Hashtbl.find_opt rendezvous
      (Simnet.Segment.uid hs.hs_seg, Simnet.Node.id hs.hs_node, port)
    |> Option.map Stream.listener_port

let map_event = function
  | Stream.Established -> Tcp.Established
  | Stream.Readable -> Tcp.Readable
  | Stream.Writable -> Tcp.Writable
  | Stream.Peer_closed -> Tcp.Peer_closed
  | Stream.Reset -> Tcp.Reset

(* Bridge simulated faults onto the real socket: carrier loss on the
   segment resets the connection (RST out, [Reset] locally). The watcher
   stack on a segment cannot be removed, so a generation flag keeps stale
   subscriptions inert. *)
let mk_host_conn hs stream =
  let hc = { hc_stream = Some stream; hc_node = hs.hs_node; hc_dead = false } in
  let kill up =
    if (not up) && not hc.hc_dead then begin
      hc.hc_dead <- true;
      Stream.reset stream
    end
  in
  Simnet.Segment.on_link_state hs.hs_seg hs.hs_node kill;
  (* A node crash kills that node's real sockets the same way: the peer
     sees an RST, which is exactly what a failure detector listening for
     transport death needs. *)
  Simnet.Node.on_state hs.hs_node kill;
  (* The watcher only covers crashes after this point; a socket opened on
     an already-crashed node must be stillborn, or the zombie keeps
     talking — on simnet a down node cannot emit a single frame, and the
     failure-detection stack depends on the host backend matching that. *)
  if not (Simnet.Node.is_up hs.hs_node) then kill false;
  hc

(* ---------- dispatch through the arbitration core ---------- *)

let event_name = function
  | Tcp.Established -> "established"
  | Tcp.Readable -> "readable"
  | Tcp.Writable -> "writable"
  | Tcp.Peer_closed -> "peer-closed"
  | Tcp.Reset -> "reset"

(* Charge one callback dispatch: counted, and its CPU cost on the node. *)
let charge t =
  Stats.Counter.incr t.dispatched;
  Simnet.Node.charge t.sio_node Calib.sysio_callback_ns

let trace_event t name =
  if Trace.on () then
    Trace.instant t.sio_node (Padico_obs.Event.Sysio_event { event = name })

(* Accepts go through the arbitration core as posted work items. *)
let dispatch t f =
  Na_core.post t.core Na_core.Sysio_work (fun () ->
      charge t;
      f ())

(* ---------- readiness sources ---------- *)

(* Deliver every pending event of a watched connection. A callback that
   unwatches its connection leaves the rest of the pending events to
   [ignore]; they are still charged as dispatches. *)
let drain_conn t c =
  while not (Event_fifo.is_empty c.w_pending) do
    let ev = Event_fifo.head c.w_pending in
    c.w_pending <- Event_fifo.tail c.w_pending;
    charge t;
    trace_event t (event_name ev);
    c.w_cb ev
  done

let push_event t c ev =
  c.w_pending <- Event_fifo.push c.w_pending ev;
  Na_core.mark_ready t.core c.w_src

let sum_stacks f t =
  List.fold_left (fun acc st -> acc + f st) 0 t.sim_stacks

let get n =
  let key = Simnet.Node.uid n in
  Mutex.protect registry_lock (fun () ->
      match Hashtbl.find_opt instances key with
      | Some t -> t
      | None ->
        let scope = Metrics.Node (Simnet.Node.name n) in
        let core = Na_core.get n in
        let dispatched = Metrics.fresh_counter scope "sysio.dispatched" in
        let rec t =
          { sio_node = n; core; dispatched; sim_stacks = [];
            drain = (fun c -> drain_conn t c) }
        in
        Metrics.gauge scope "conn.count" (fun () ->
            float_of_int (sum_stacks Tcp.conn_count t));
        Metrics.gauge scope "conn.bytes_resident" (fun () ->
            float_of_int (sum_stacks Tcp.resident_bytes t));
        Hashtbl.replace instances key t;
        t)

let node t = t.sio_node

let set_transport_cb conn f =
  match conn.impl with
  | Sim_conn c -> Tcp.set_event_cb c f
  | Host_conn { hc_stream = Some s; _ } ->
    Stream.set_event_cb s (fun ev -> f (map_event ev))
  | Host_conn _ -> ()

(* Register the connection's readiness source and point the transport's
   event callback at it, or retarget the watch it already has. A fresh
   watch starts with no pending event. *)
let attach t conn cb =
  conn.w_cb <- cb;
  if conn.w_src == Na_core.no_source then begin
    conn.w_pending <- Event_fifo.empty;
    conn.w_src <- Na_core.register_source t.core conn ~drain:t.drain;
    set_transport_cb conn (fun ev -> push_event t conn ev)
  end

let watch t conn cb =
  let fresh = conn.w_src == Na_core.no_source in
  attach t conn cb;
  match conn.impl with
  | Host_conn { hc_stream = None; _ } when fresh ->
    (* Refused dial: the only event this connection will ever see. *)
    push_event t conn Tcp.Reset
  | Sim_conn _ | Host_conn _ -> ()

let unwatch t conn =
  if conn.w_src != Na_core.no_source then begin
    Na_core.unregister_source t.core conn.w_src;
    (* Events still pending when the callback unwatches mid-drain are
       dropped, like an fd closed with events queued. *)
    conn.w_cb <- ignore;
    conn.w_src <- Na_core.no_source
  end;
  set_transport_cb conn ignore

let mk_conn impl =
  { impl; w_cb = ignore; w_pending = Event_fifo.empty;
    w_src = Na_core.no_source }

let listen ?sndbuf ?rcvbuf t stack ~port cb =
  match stack with
  | Sim_stack st ->
    Tcp.listen ?sndbuf ?rcvbuf st ~port (fun conn ->
        dispatch t (fun () ->
            trace_event t "accept";
            cb (mk_conn (Sim_conn conn))))
  | Host_stack hs ->
    let key =
      (Simnet.Segment.uid hs.hs_seg, Simnet.Node.id t.sio_node, port)
    in
    if Hashtbl.mem rendezvous key then
      invalid_arg "Sysio.listen: port already bound";
    let listener =
      Stream.listen hs.hs_loop (fun stream ->
          let conn = mk_conn (Host_conn (mk_host_conn hs stream)) in
          dispatch t (fun () ->
              trace_event t "accept";
              cb conn))
    in
    Hashtbl.replace rendezvous key listener

let connect ?sndbuf ?rcvbuf t stack ~dst ~port cb =
  let conn =
    match stack with
    | Sim_stack st ->
      mk_conn (Sim_conn (Tcp.connect ?sndbuf ?rcvbuf st ~dst ~port))
    | Host_stack hs ->
      let key = (Simnet.Segment.uid hs.hs_seg, dst, port) in
      (match Hashtbl.find_opt rendezvous key with
       | Some listener ->
         let stream =
           Stream.connect hs.hs_loop ~port:(Stream.listener_port listener) ()
         in
         mk_conn (Host_conn (mk_host_conn hs stream))
       | None ->
         (* Nobody listens on that logical port: SYN -> RST. *)
         mk_conn
           (Host_conn
              { hc_stream = None; hc_node = hs.hs_node; hc_dead = true }))
  in
  attach t conn (cb conn);
  (match conn.impl with
   | Host_conn { hc_stream = None; _ } ->
     let src = conn.w_src in
     Clock.after (Simnet.Node.clock t.sio_node) 0 (fun () ->
         if conn.w_src == src then push_event t conn Tcp.Reset)
   | Sim_conn _ | Host_conn _ -> ());
  conn

(* ---------- connection operations ---------- *)

let writev conn bufs =
  match conn.impl with
  | Sim_conn c -> Tcp.writev c bufs
  | Host_conn { hc_stream = Some s; _ } -> Stream.writev s bufs
  | Host_conn _ -> 0

let write conn b = writev conn [ b ]

let write_space conn =
  match conn.impl with
  | Sim_conn c -> Tcp.write_space c
  | Host_conn { hc_stream = Some s; _ } -> Stream.write_space s
  | Host_conn _ -> 0

let read conn ~max =
  match conn.impl with
  | Sim_conn c -> Tcp.read c ~max
  | Host_conn { hc_stream = Some s; _ } -> Stream.read s ~max
  | Host_conn _ -> None

let readable_bytes conn =
  match conn.impl with
  | Sim_conn c -> Tcp.readable_bytes c
  | Host_conn { hc_stream = Some s; _ } -> Stream.readable_bytes s
  | Host_conn _ -> 0

let peer_closed conn =
  match conn.impl with
  | Sim_conn c -> Tcp.peer_closed c
  | Host_conn { hc_stream = Some s; _ } -> Stream.peer_closed s
  | Host_conn _ -> true

let conn_node conn =
  match conn.impl with
  | Sim_conn c -> Tcp.conn_node c
  | Host_conn hc -> hc.hc_node

let close conn =
  match conn.impl with
  | Sim_conn c -> Tcp.close c
  | Host_conn ({ hc_stream = Some s; _ } as hc) ->
    hc.hc_dead <- true;
    Stream.close s
  | Host_conn _ -> ()

let abort conn =
  match conn.impl with
  | Sim_conn c -> Tcp.abort c
  | Host_conn ({ hc_stream = Some s; _ } as hc) ->
    hc.hc_dead <- true;
    Stream.abort s
  | Host_conn _ -> ()

let watch_udp t udp ~port cb =
  Drivers.Udp.bind udp ~port (fun ~src ~src_port buf ->
      (* Datagrams are unreliable by contract: under overload they are shed
         rather than queued, and the datagram protocol's own retransmission
         (VRP) recovers. *)
      ignore
        (Na_core.post_droppable t.core Na_core.Sysio_work (fun () ->
             charge t;
             trace_event t "udp-datagram";
             cb ~src ~src_port buf)))

let events_dispatched t = Stats.Counter.value t.dispatched

(* ---------- byte-budget accounting ---------- *)

let conn_count t = sum_stacks Tcp.conn_count t

let bytes_resident t = sum_stacks Tcp.resident_bytes t

let conns_reaped t = sum_stacks Tcp.reaped t

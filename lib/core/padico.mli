(** Padico runtime façade: brings a simulated grid, the NetAccess
    arbitration, the abstraction layer (VLink + Circuit) and the selector
    together behind one API. This is what examples, middleware bring-up and
    benchmarks use.

    {[
      let grid = Padico.create () in
      let a = Padico.add_node grid "a" in
      let b = Padico.add_node grid "b" in
      ignore (Padico.add_segment grid Simnet.Presets.myrinet2000 [ a; b ]);
      Padico.listen grid b ~port:4000 (fun vl -> ...);
      let vl = Padico.connect grid ~src:a ~dst:b ~port:4000 in
      ...
      Padico.run grid
    ]} *)

module Registry = Registry

type t

type backend =
  | Sim  (** discrete-event simulation on the virtual clock (default) *)
  | Host  (** real Unix sockets and wall-clock timers via {!Hostio} *)

val create :
  ?seed:int -> ?prefs:Selector.Prefs.t -> ?backend:backend -> ?shards:int ->
  unit -> t
(** [backend] selects the execution backend for the whole grid: [Sim]
    runs on the simulator's virtual clock; [Host] creates a
    {!Hostio.Loop} reactor whose monotonic clock every node runs on, so
    the same program does real socket I/O.

    [shards] (default 1) is the number of slices of the grid (see
    [Simnet.Net.create]); place nodes with {!add_node}'s [?shard] and run
    several shards on {!run}'s [?domains]. More than one shard needs the
    [Sim] backend. *)

val net : t -> Simnet.Net.t
val sim : t -> Engine.Sim.t

val backend : t -> backend

val loop : t -> Hostio.Loop.t option
(** The reactor behind a [Host] grid ([None] on [Sim]). *)

val prefs : t -> Selector.Prefs.t
val set_prefs : t -> Selector.Prefs.t -> unit

(** {1 Topology} *)

val add_node : ?shard:int -> t -> string -> Simnet.Node.t
val add_segment :
  t -> Simnet.Linkmodel.t -> ?name:string -> Simnet.Node.t list ->
  Simnet.Segment.t

(** {1 Per-node resources} *)

val sysio : Simnet.Node.t -> Netaccess.Sysio.t
val madio : t -> Simnet.Node.t -> Simnet.Segment.t -> Netaccess.Madio.t
(** Raises if the segment is not a SAN/loopback or the node not attached. *)

(** {1 Distributed paradigm: VLink connections} *)

val listen : t -> Simnet.Node.t -> port:int -> (Vlink.Vl.t -> unit) -> unit
(** Register the service on every driver the node can be reached through:
    loopback, MadIO on each SAN, SysIO/pstream/VRP on each IP segment —
    with the selector's wrapping (AdOC on slow links, cipher on untrusted
    links) mirrored on the accept path. *)

val connect : t -> src:Simnet.Node.t -> dst:Simnet.Node.t -> port:int ->
  Vlink.Vl.t
(** Driver and methods chosen by the selector; returns immediately. *)

val connect_choice :
  t -> src:Simnet.Node.t -> dst:Simnet.Node.t -> Selector.choice
(** What [connect] would decide (introspection). *)

val connect_with_choice :
  t -> src:Simnet.Node.t -> dst:Simnet.Node.t -> port:int ->
  Selector.choice -> Vlink.Vl.t
(** Apply a specific selector decision — failover re-selection computes a
    choice under exclusions ({!Selector.choose}) and connects with it. *)

(** {1 Relay tunnels (future-work extension)} *)

val start_relay : t -> Simnet.Node.t -> unit
(** Run the tunnel relay service on a gateway node ("tunnels for
    full-connectivity through firewalls"): when [connect] finds no common
    network between two nodes, it tunnels through a registered relay that
    reaches both, transparently for the endpoints. *)

val relay_port : int

(** {1 Parallel paradigm: circuits} *)

val circuit : t -> name:string -> Simnet.Node.t list -> Circuit.Ct.t array
(** Build one circuit over the group; element [i] is rank [i]'s instance
    (live on node [i]). Links are bound per pair: loopback intra-node,
    MadIO on a common SAN, parallel-stream VLink on WAN (when enabled),
    SysIO/TCP otherwise. *)

(** {1 Execution} *)

val run : ?until:int -> ?domains:int -> t -> unit
(** Drive the grid until quiescence. [until] bounds execution: virtual ns
    on [Sim], wall-clock ns since reactor creation on [Host]. [domains]
    ([Sim] grids of several shards only) sets the worker-domain count
    for the parallel engine. *)

val now : t -> int
(** Current time on the grid's clock: virtual ns ([Sim]; the maximum
    across shard clocks) or monotonic wall ns
    ([Host]). *)

val reset : unit -> unit
(** Drop every module-level registry (TCP stacks, NetAccess dispatchers,
    adapter instances, metrics, ...) left behind by previous grids.
    Grids are never reused across scenarios, but the uid-keyed registry
    tables keep each one reachable; a process that runs many scenarios
    back to back (bench runner, conformance kit, capacity sweeps) calls
    this between them so dead grids stop occupying the heap. Must not
    be called while any grid is still in use. *)

val spawn :
  t -> Simnet.Node.t -> ?name:string -> (unit -> unit) -> Engine.Proc.handle

val pstream_port_offset : int
val vrp_port_offset : int

type layer = Arbitration | Abstraction | Selection | Resilience

type vl_op = Read | Write

type adapter_dir = Wrap | Unwrap

type t =
  | Dispatch of { kind : string; queued_ns : int }
  | Poll of { kind : string }
  | Header of { lchannel : int; bytes : int; combined : bool }
  | Madio_recv of { lchannel : int; bytes : int }
  | Sysio_event of { event : string }
  | Vl_connect of { driver : string }
  | Vl_post of { op : vl_op; bytes : int }
  | Vl_complete of { op : vl_op; result : string; bytes : int }
  | Ct_pack of { circuit : string; dst : int; bytes : int }
  | Ct_recv of { circuit : string; src : int; bytes : int }
  | Adapter of { adapter : string; dir : adapter_dir; bytes : int }
  | Flow of { action : string; place : string; bytes : int }
  | Choice of {
      src : string;
      dst : string;
      driver : string;
      rule : string;
      streams : int;
      adoc : bool;
      crypto : bool;
    }
  | Fault of { action : string; target : string }
  | Vl_timeout of { op : vl_op; after_ns : int }
  | Retry of { attempt : int; delay_ns : int; target : string }
  | Failover of {
      from_ : string;
      to_ : string;
      retries : int;
      downtime_ns : int;
    }
  | Agg of { action : string; lchannel : int; msgs : int; bytes : int }
  | Coll_stage of {
      group : string;
      op : string;
      stage : string;
      level : string;
      bytes : int;
    }
  | Coll_wan of { group : string; op : string; dst : int; bytes : int }
  | Detect of { action : string; peer : int; phi_milli : int }
  | Member of { group : string; action : string; rank : int; epoch : int }

let layer = function
  | Dispatch _ | Poll _ | Header _ | Madio_recv _ | Sysio_event _ ->
    Arbitration
  | Vl_connect _ | Vl_post _ | Vl_complete _ | Ct_pack _ | Ct_recv _
  | Adapter _ | Coll_stage _ | Coll_wan _ ->
    Abstraction
  | Flow _ | Agg _ -> Arbitration
  | Choice _ -> Selection
  | Fault _ | Vl_timeout _ | Retry _ | Failover _ | Detect _ | Member _ ->
    Resilience

let layer_name = function
  | Arbitration -> "arbitration"
  | Abstraction -> "abstraction"
  | Selection -> "selection"
  | Resilience -> "resilience"

let op_name = function Read -> "read" | Write -> "write"

let dir_name = function Wrap -> "wrap" | Unwrap -> "unwrap"

let name = function
  | Dispatch { kind; _ } -> "na.dispatch." ^ kind
  | Poll { kind; _ } -> "na.poll." ^ kind
  | Header _ -> "madio.header"
  | Madio_recv _ -> "madio.recv"
  | Sysio_event _ -> "sysio.event"
  | Vl_connect _ -> "vl.connect"
  | Vl_post { op; _ } -> "vl.post." ^ op_name op
  | Vl_complete { op; _ } -> "vl.complete." ^ op_name op
  | Ct_pack _ -> "ct.pack"
  | Ct_recv _ -> "ct.recv"
  | Adapter { adapter; dir; _ } -> adapter ^ "." ^ dir_name dir
  | Flow { action; _ } -> "flow." ^ action
  | Choice _ -> "selector.choice"
  | Fault { action; _ } -> "fault." ^ action
  | Vl_timeout { op; _ } -> "vl.timeout." ^ op_name op
  | Retry _ -> "resilience.retry"
  | Failover _ -> "resilience.failover"
  | Agg { action; _ } -> "agg." ^ action
  | Coll_stage _ -> "coll.stage"
  | Coll_wan _ -> "coll.wan"
  | Detect { action; _ } -> "detect." ^ action
  | Member { action; _ } -> "member." ^ action

type arg = I of int | S of string | B of bool

let args = function
  | Dispatch { kind; queued_ns } ->
    [ ("kind", S kind); ("queued_ns", I queued_ns) ]
  | Poll { kind } -> [ ("kind", S kind) ]
  | Header { lchannel; bytes; combined } ->
    [ ("lchannel", I lchannel); ("bytes", I bytes); ("combined", B combined) ]
  | Madio_recv { lchannel; bytes } ->
    [ ("lchannel", I lchannel); ("bytes", I bytes) ]
  | Sysio_event { event } -> [ ("event", S event) ]
  | Vl_connect { driver } -> [ ("driver", S driver) ]
  | Vl_post { op; bytes } -> [ ("op", S (op_name op)); ("bytes", I bytes) ]
  | Vl_complete { op; result; bytes } ->
    [ ("op", S (op_name op)); ("result", S result); ("bytes", I bytes) ]
  | Ct_pack { circuit; dst; bytes } ->
    [ ("circuit", S circuit); ("dst", I dst); ("bytes", I bytes) ]
  | Ct_recv { circuit; src; bytes } ->
    [ ("circuit", S circuit); ("src", I src); ("bytes", I bytes) ]
  | Adapter { adapter; dir; bytes } ->
    [ ("adapter", S adapter); ("dir", S (dir_name dir)); ("bytes", I bytes) ]
  | Choice { src; dst; driver; rule; streams; adoc; crypto } ->
    [ ("src", S src); ("dst", S dst); ("driver", S driver);
      ("rule", S rule); ("streams", I streams); ("adoc", B adoc);
      ("crypto", B crypto) ]
  | Flow { action; place; bytes } ->
    [ ("action", S action); ("place", S place); ("bytes", I bytes) ]
  | Fault { action; target } -> [ ("action", S action); ("target", S target) ]
  | Vl_timeout { op; after_ns } ->
    [ ("op", S (op_name op)); ("after_ns", I after_ns) ]
  | Retry { attempt; delay_ns; target } ->
    [ ("attempt", I attempt); ("delay_ns", I delay_ns); ("target", S target) ]
  | Failover { from_; to_; retries; downtime_ns } ->
    [ ("from", S from_); ("to", S to_); ("retries", I retries);
      ("downtime_ns", I downtime_ns) ]
  | Agg { action = _; lchannel; msgs; bytes } ->
    [ ("lchannel", I lchannel); ("msgs", I msgs); ("bytes", I bytes) ]
  | Coll_stage { group; op; stage; level; bytes } ->
    [ ("group", S group); ("op", S op); ("stage", S stage);
      ("level", S level); ("bytes", I bytes) ]
  | Coll_wan { group; op; dst; bytes } ->
    [ ("group", S group); ("op", S op); ("dst", I dst); ("bytes", I bytes) ]
  | Detect { action = _; peer; phi_milli } ->
    [ ("peer", I peer); ("phi_milli", I phi_milli) ]
  | Member { group; action = _; rank; epoch } ->
    [ ("group", S group); ("rank", I rank); ("epoch", I epoch) ]

let pp fmt t =
  Format.fprintf fmt "%s[%s" (name t) (layer_name (layer t));
  List.iter
    (fun (k, v) ->
       match v with
       | I i -> Format.fprintf fmt " %s=%d" k i
       | S s -> Format.fprintf fmt " %s=%s" k s
       | B b -> Format.fprintf fmt " %s=%b" k b)
    (args t);
  Format.fprintf fmt "]"

(** Straight Circuit adapter: parallel interface on parallel hardware,
    through MadIO's logical multiplexing. One MadIO logical channel per
    circuit. *)

type index
(** Node id -> rank lookup, built once per circuit, shared by its members. *)

val index : Simnet.Node.t array -> index
(** [index group], with [group] as given to {!Ct.create}. *)

val bind :
  Ct.t -> Netaccess.Madio.t -> index:index -> lchannel_id:int ->
  ranks:int list -> unit
(** Bind the links towards [ranks] to this MadIO instance, and register the
    circuit's receive path on logical channel [lchannel_id] (which must be
    the same on every member). All [ranks] must be reachable on the MadIO
    segment. *)

val adapter_name : string

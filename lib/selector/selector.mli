(** The selector: automatically and dynamically choose the best arbitrated
    interface for each link according to the available hardware and the
    user preferences, then map it onto the right abstract interface through
    the right adapter.

    The decision is pure (driven by {!Simnet.Net} topology and {!Prefs});
    the Padico runtime applies it by instantiating drivers. *)

module Prefs = Prefs

module Netdb = Netdb
(** Topology knowledge base: cluster / level enumeration for group
    operations (consumed by [Collectives]). *)

(** A stream filter the selector stacks on a link, with its parameters. *)
type filter =
  | Adoc of { link_bandwidth_bps : float }
      (** adaptive compression for a link draining at this rate *)
  | Cipher of { key : string }  (** the cipher, keyed by this secret *)

type choice = {
  driver : string;  (** "loopback" | "madio" | "sysio" | "pstream" | "vrp" *)
  segment : Simnet.Segment.t option;  (** chosen network, None = loopback *)
  streams : int;  (** >1 only for pstream *)
  filters : filter list;  (** stacked on [driver], innermost first *)
  vrp_tolerance : float;  (** meaningful when driver = "vrp" *)
}

val filters : Prefs.t -> Simnet.Linkmodel.t -> driver:string -> filter list
(** The filters to stack on [driver] over a link of this model, innermost
    first — the one wrap decision, made for the connecting side by
    {!choose} and for the accepting side by the runtime's listeners, so
    both ends always stack the same filters. AdOC wraps slow links when
    enabled, and the cipher wraps untrusted links (security adaptation:
    trusted links are never ciphered); only the stream drivers ("sysio",
    "pstream") are wrapped. *)

val choose :
  ?prefs:Prefs.t -> ?exclude:Simnet.Segment.t list -> Simnet.Net.t ->
  src:Simnet.Node.t -> dst:Simnet.Node.t -> choice
(** Decision rules, in order:
    - same node → loopback;
    - best common segment is a SAN → MadIO (straight parallel path);
    - lossy WAN and VRP enabled → VRP with the configured tolerance;
    - WAN and parallel streams enabled → pstream;
    - otherwise → SysIO/TCP;
    then {!filters} for the chosen driver.

    Segments listed in [exclude], and segments whose carrier is currently
    down, are not candidates — this is how failover re-selection asks for
    "the best link that is {e not} the one that just died".
    Raises [Failure] when no common network exists, or none is usable. *)

val pp_choice : Format.formatter -> choice -> unit

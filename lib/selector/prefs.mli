(** User-defined preferences steering the selector ("a knowledge base of
    the network topology managed by PadicoTM and user-defined
    preferences"). *)

type t = {
  pstream_on_wan : bool;  (** stripe WAN links over parallel sockets *)
  pstream_streams : int;
  adoc_on_slow : bool;  (** online compression on slow links *)
  adoc_threshold_bps : float;
      (** links at or below this rate are "slow" for AdOC *)
  vrp_on_lossy : bool;  (** tunable-reliability transport on lossy WANs *)
  vrp_tolerance : float;
  cipher_untrusted : bool;
      (** cipher on untrusted links only — security adaptation *)
  cipher_key : string;
}

val default : t
(** Conservative defaults: straight adapters everywhere, ciphering on
    untrusted links, no WAN methods unless enabled. *)

val wan_optimized : t
(** Parallel streams + AdOC + VRP enabled. *)

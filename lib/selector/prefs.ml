type t = {
  pstream_on_wan : bool;
  pstream_streams : int;
  adoc_on_slow : bool;
  adoc_threshold_bps : float;
  vrp_on_lossy : bool;
  vrp_tolerance : float;
  cipher_untrusted : bool;
  cipher_key : string;
}

let default =
  { pstream_on_wan = false; pstream_streams = 4;
    adoc_on_slow = false; adoc_threshold_bps = 1e6; vrp_on_lossy = false;
    vrp_tolerance = 0.1; cipher_untrusted = true;
    cipher_key = "padico-default-key" }

let wan_optimized =
  { default with pstream_on_wan = true; adoc_on_slow = true;
    vrp_on_lossy = true }

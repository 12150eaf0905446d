(** Toy confidentiality/authentication adapter for the security-adaptation
    mechanism ("if the network is secure, it is useless to cipher data").

    NOT real cryptography — the paper leaves GSI/IPsec integration as future
    work; what we reproduce is the {e selector-driven adaptation}: the
    cipher adapter is inserted only on untrusted links, and it costs CPU per
    byte. The cipher is a keyed xorshift stream with a 4-byte keyed checksum
    trailer so tampering and key mismatch are detectable in tests.

    {b Wire format.} A frame is the [n]-byte ciphertext followed by a
    32-bit little-endian MAC ({!overhead} = 4 bytes).

    {b Cipher.} Byte [i] of the ciphertext is plaintext byte [i] xor byte
    [i mod 8] (little-endian) of the [(i / 8 + 1)]-th state of a
    xorshift64 (shifts 13, 7, 17) seeded with [key lor 1]: one state step
    per 8 bytes, the tail taking the low bytes of one more step.

    {b MAC.} Over the ciphertext, modulo 2{^32}: starting from the key's
    low 24 bits, [acc <- acc * 0x01000193 + lane] for each 32-bit
    little-endian lane of the whole 8-byte words, then for each tail byte.
    Because the multiplier is odd and a changed byte moves its lane by a
    non-zero amount below 2{^32}, {!decrypt} rejects every single-byte
    change of the ciphertext or of the MAC, and a key whose low 24 bits
    differ.

    {!encrypt} and {!decrypt} allocate their output buffer and a constant
    number of words besides. *)

type key

val key_of_string : string -> key
val derive : key -> salt:int -> key

val encrypt : key -> Engine.Bytebuf.t -> Engine.Bytebuf.t
(** Adds a 4-byte authentication trailer. *)

val decrypt : key -> Engine.Bytebuf.t -> (Engine.Bytebuf.t, string) result
(** Fails on checksum mismatch (wrong key or corruption). *)

val overhead : int

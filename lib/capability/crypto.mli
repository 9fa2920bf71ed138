(** Capability-sealing cryptography (XTEA).

    The paper protects capabilities by encrypting (rights, random-number)
    pairs under a server-private key; the scheme only needs a keyed
    permutation on small blocks, so a self-contained XTEA implementation
    suffices. This is protection against forging by ordinary clients as in
    the paper, not modern cryptographic strength. *)

type key
(** A 128-bit XTEA key. *)

val key_of_string : string -> key
(** Derive a key from arbitrary bytes (hashed and folded to 128 bits). *)

val encrypt : key -> int64 -> int64
(** Encrypt one 64-bit block. *)

val decrypt : key -> int64 -> int64
(** Inverse of {!encrypt} under the same key. *)

val one_way : int64 -> int64
(** A fixed one-way function on 64-bit values, as Amoeba uses to derive a
    server's public get-port from its private put-port (Davies–Meyer over
    XTEA with a fixed key schedule). *)

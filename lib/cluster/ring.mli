(** A deterministic consistent-hash ring with virtual nodes.

    Each member contributes 64 virtual-node points on a 64-bit circle; a key
    hashes to a point and is owned by the next [r] {e distinct} members
    clockwise from it. Every position is {!position_of} the member name
    and vnode index, so the same member set always produces the same
    placement — byte-stable across machines and compiler versions,
    unlike anything derived from [Hashtbl.hash].

    The ring is immutable: {!add} and {!remove} return a new ring, which
    is what lets a rebalancer diff placement before and after a
    membership change and migrate {e only} the keys whose owner group
    changed ({!moved}). *)

type t

val position_of : string -> int64
(** The 64-bit circle position of a name: the
    {!Amoeba_sim.Prng.seed_of_string} FNV-1a fold pushed through one
    SplitMix64 step. FNV-1a alone has no trailing-byte avalanche —
    ["a#1"] and ["a#2"] land a fixed stride apart — and consistent
    hashing needs every bit mixed; the SplitMix64 finaliser provides
    that while staying compiler-stable. Exposed so shard spaces built
    over the ring hash keys the same way. *)

val empty : t
(** The ring with no members. *)

val add : t -> string -> t
(** Ring with one more member. Raises [Invalid_argument] if the member
    is already present or the name is empty. *)

val remove : t -> string -> t
(** Ring without the member. Raises [Invalid_argument] if absent. *)

val mem : t -> string -> bool

val members : t -> string list
(** Sorted. *)

val size : t -> int

val owners : t -> r:int -> string -> string list
(** The first [min r (size t)] distinct members clockwise from the
    key's position — the key's replica group, preference order first.
    [[]] on an empty ring. Raises [Invalid_argument] when [r <= 0]. *)

val moved : before:t -> after:t -> r:int -> string list -> string list
(** The subset of [keys] whose {!owners} group differs between the two
    rings (as a list — order and membership, since preference order is
    placement too). This is exactly the set a rebalancer must touch for
    the membership change [before -> after]. *)

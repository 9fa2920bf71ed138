(** Sparse capabilities: client-side rights restriction.

    The paper's protection section ends with "Other schemes are
    described in [12]" — Tanenbaum, Mullender & van Renesse, {e Using
    Sparse Capabilities in a Distributed Operating System} (ICDCS 1986).
    That scheme's trick: the {e owner} capability's check field is the
    object's big random number itself, and a capability with rights [r]
    carries [F(random XOR pad(r))] for a public one-way function [F].
    Anyone holding the owner capability can mint a restricted one
    {e without talking to the server}; nobody can go the other way,
    because inverting [F] is infeasible.

    Verification is server-side as usual: recompute from the stored
    random. This module implements that scheme next to the XTEA
    {!Sealer} so the two can be compared (the benchmark's MICRO section
    does). *)

type t
(** Holds the public one-way function's parameters (none are secret —
    the security lives in the object randoms). *)

val create : unit -> t

val owner_rights : Rights.t
(** The full-rights value; only the owner capability may carry it. *)

val owner_check : random:int64 -> int64
(** Check field of the owner capability: the random itself. *)

val restrict_offline : t -> owner:Capability.t -> rights:Rights.t -> Capability.t
(** Client-side: derive a weaker capability from the {e owner}
    capability without any RPC. Raises [Invalid_argument] if [owner]
    does not carry {!owner_rights} or [rights] equals
    {!owner_rights}. *)

val verify : t -> random:int64 -> cap:Capability.t -> bool
(** Server-side validity check for both owner and restricted
    capabilities. *)

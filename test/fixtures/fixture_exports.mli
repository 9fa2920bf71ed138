(* Seeded exports for the vet exports pass. Fixture_exports_user is the
   only other unit that uses them. test/test_vet.ml asserts the exact
   lines below — keep them in sync when editing. *)

val dead : int -> int
(* no unit references it *)

val own_only : int -> int
(* only fixture_exports.ml itself calls it *)

val aliased : int -> int
(* used only through [module E = Fixture_exports] *)

val opt_unpassed : ?scale:int -> int -> int
(* every call site leaves [?scale] out *)

val opt_forwarded : ?scale:int -> int -> int
(* a wrapper forwards its own [?scale] *)

(* The user side of fixture_exports.mli: reaches it only through an
   alias, as lib and test modules reach other libraries. *)

module E = Fixture_exports

let twice x = E.aliased x + E.opt_unpassed x
let scaled ?scale x = E.opt_forwarded ?scale x

(* amoeba-vet: the determinism lint (Parsetree) plus the typedtree
   passes — protocol conformance, clock discipline, persisted-bytes
   taint, exports nothing uses — over this repo's own sources. See
   Amoeba_analysis.Vet and doc/ARCHITECTURE.md "Static analysis".

   Usage: amoeba_vet [--list-rules] [--passes lint,proto,clock,taint,exports]
                     [--json] [--out FILE] [path ...]

   Paths default to "lib bin". The typedtree passes read the .cmt/.cmti
   files under _build/default (run `dune build @check` first, or let the
   dune runtest gate do it); the exports pass counts every compiled unit
   of lib, bin, test, bench and examples as a user. Exits 1 on any
   diagnostic. *)

let () = exit (Amoeba_analysis.Vet_cli.main ~prog:"amoeba_vet" Sys.argv)

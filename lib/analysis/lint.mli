(** The determinism linter.

    A static-analysis pass (compiler-libs Parsetree traversal) over the
    repo's own sources that enforces the simulation's core invariant:
    same plan + same workload ⇒ same bytes. Rule ids and their
    rationale are documented in doc/ARCHITECTURE.md ("Determinism
    rules"); [bin/amoeba_vet] is the command-line driver and a dune
    rule runs it over [lib/] and [bin/] as part of [dune runtest].

    The OS rules ([no-wallclock], [no-os-entropy], [no-marshal]) apply
    everywhere: PR 7's typedtree audit proved the old blanket carrier
    exemption ([lib/rpc/tcp.ml] + [bin/]) was never exercised, so it was
    retired. Rules about [lib] hygiene ([no-unstable-hash],
    [no-hashtbl-iteration], [mli-coverage], [no-silent-catchall]) apply
    only to paths containing a [lib] segment. Individual lines are
    silenced with a [(* lint: allow <rule-id> <justification> *)]
    comment on the offending line or the line directly above it. *)

type diagnostic = { file : string; line : int; rule : string; message : string }

val to_string : diagnostic -> string
(** ["file:line rule-id message"]. *)

val rules : (string * string) list
(** Every rule id with a one-line description. *)

(** {2 Helpers shared with the typedtree passes ([Vet])} *)

val under : string -> string -> bool
(** [under dir path] is true when [path] contains [dir] as a whole
    segment ([under "lib" "lib/bullet/proto.ml"]). *)

val codec_role : string -> ([ `Encode | `Decode ] * string) option
(** Classify a binding name as a wire codec: [encode_stat] is
    [Some (`Encode, "stat")], [decode] is [Some (`Decode, "")]. *)

val allows_of_source : string -> (int * string) list
(** All [(* lint: allow <rule-id> ... *)] markers in a source text, as
    [(line, rule-id)] pairs where [line] is the 1-based line the marker
    sits on. *)

val suppressed : (int * string) list -> diagnostic -> bool
(** Whether a diagnostic is silenced by a marker on its own line or the
    line directly above. *)

val lint_source : path:string -> string -> diagnostic list
(** Lint one compilation unit given as a string. [path] decides which
    allowlists apply and is echoed in diagnostics; the source is parsed
    with the compiler's own parser, so a syntax error yields a single
    [parse-error] diagnostic. Filesystem-level rules ([mli-coverage])
    are not checked here. *)

val lint_paths : string list -> diagnostic list
(** Lint every [.ml] file under the given files/directories
    (recursively, skipping [_build] and dot-directories), sorted by
    file, line and rule. *)

(** amoeba-vet: whole-program analyses over the compiler's typed trees.

    The Parsetree lint ([Lint]) is pass one; these passes read the
    [.cmt] artifacts dune leaves next to every compiled module (any dev
    build emits them; [dune build @check] builds them without linking)
    and see resolved paths across compilation units:

    - [Proto] — protocol conformance: [vet-proto-duplicate-cmd],
      [vet-proto-unhandled-cmd], [vet-proto-orphan-codec],
      [vet-proto-duplicate-metric].
    - [Clock] — interprocedural clock discipline:
      [vet-clock-free-work].
    - [Taint] — persisted-bytes taint: [vet-taint-persist].
    - [Exports] — code nothing uses: [vet-dead-export] (a [val] of a
      lib interface that no other compilation unit references) and
      [vet-unused-optional] (an optional argument of such a [val] that
      no call site passes). Its users are the [.cmt] files handed to
      {!analyze} as [~users]; module aliases resolve across units.

    The first three over-approximate on the call graph of top-level
    bindings; doc/ARCHITECTURE.md "Static analysis" documents the
    sound/unsound edges. Suppression uses the lint's
    [(* lint: allow <rule-id> <justification> *)] grammar; the taint
    pass honours a marker at either the sink or the source site. *)

type diagnostic = Lint.diagnostic = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

type pass = Proto | Clock | Taint | Exports

val pass_of_name : string -> pass option

val rules : (string * string) list
(** Every vet rule id with a one-line description (the lint's rules are
    in [Lint.rules]). *)

type inventory = {
  inv_cmds : (string * string * int) list;  (** unit, cmd name, wire value *)
  inv_codecs : (string * string) list;  (** unit, codec name *)
  inv_spans : (string * string) list;  (** unit, literal trace span/event name *)
  inv_metrics : (string * string) list;
      (** unit, literal metric or stats-source prefix name registered with
          a {!Amoeba_metrics.Metrics} registry *)
}

type report = { diagnostics : diagnostic list; inventory : inventory }

val analyze :
  read_source:(string -> string option) ->
  passes:pass list ->
  users:string list ->
  string list ->
  (report, string) result
(** [analyze ~read_source ~passes ~users cmt_paths] loads every [.cmt]
    and [.cmti], runs the selected passes, and filters diagnostics
    through the suppression markers found by [read_source] (which maps
    a cmt-recorded source path to its text, or [None] when unavailable
    — suppressions are then simply not honoured for that file).
    [Exports] diagnoses the interfaces among [cmt_paths] whose source
    lies under a [lib] (or [fixtures]) directory, and counts as users
    the units of the [.cmt] files in [users]; the other passes ignore
    [users]. Diagnostics are unordered; sort with [order_diagnostics].
    [Error] reports unreadable cmt files and units that did not
    compile. *)

val order_diagnostics : diagnostic list -> diagnostic list
(** Stable order: file, line, rule, message. *)

val to_json : passes:string list -> diagnostics:diagnostic list -> inventory -> string
(** Byte-stable JSON report (sorted arrays, fixed key order, trailing
    newline) so CI can diff double runs byte-for-byte. *)

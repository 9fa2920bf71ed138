(** The table of deterministic bench sections.

    [bench/main.exe NAME] runs a row: [run] prints the section to stdout
    and returns the contents of the row's [files], in order, which the
    caller writes under those names. Every output is a pure function of
    the virtual clock, so [dune runtest] reruns each row and diffs its
    stdout and files against [determinism/golden/] (rules generated from
    this table by [determinism/golden/gen.exe]). *)

type t = {
  name : string;
  run : unit -> string list;
  files : string list;  (** named [BENCH_*]; their goldens drop the prefix *)
}

val all : t list
(** In the order [bench/main.exe] runs them with no arguments. *)

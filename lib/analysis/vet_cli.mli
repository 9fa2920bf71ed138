(** The driver behind [bin/amoeba_vet]: argument parsing, [.cmt]
    discovery (directly under the given paths when running inside
    [_build/default], else under [_build/default/<path>]), pass
    selection, and plain or [--json] output. *)

val main : prog:string -> string array -> int
(** Run the CLI; returns the intended exit code (0 clean,
    1 diagnostics reported, 2 usage/environment error). *)

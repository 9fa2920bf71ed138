(** ATTRIB — Fig. 2 re-measured with the tracer on: every simulated
    microsecond of each row charged to a layer by {!Amoeba_trace.Attrib}.
    The cached READ rows show only net + cpu (+ memcpy) time, the paper's
    §4 claim as measured output, while CREATE+DELETE is dominated by the
    synchronous disk writes. *)

val run : unit -> string list
(** Print the section; it writes no files. *)

(** PFACT — CREATE delay against the Paranoia Factor (claim C5). *)

val pfactor_sweep : ?size:int -> unit -> (int * int) list
(** [(p_factor, create_delay_us)] for P-FACTOR 0, 1, 2. *)

val pfactor_matrix : ?sizes:int list -> unit -> (int * (int * int) list) list
(** [(size, [(p, create_us); ...]); ...] — how the P-FACTOR trade moves
    with file size (the network term grows, the disk term is what p
    removes). *)

val run : unit -> string list
(** Print the section; it writes no files. *)

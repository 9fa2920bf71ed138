(** ABL1-3 — ablations: allocation policy, the append problem of §2, and
    reference [1]'s immediate files on the block baseline. *)

type ablation_report = {
  first_fit_frag : float;
  best_fit_frag : float;
  first_fit_failures : int;  (** creates refused under churn *)
  best_fit_failures : int;
}

val allocation_ablation : ?churn_ops:int -> unit -> ablation_report
(** First-fit (the paper's choice) vs best-fit under identical churn. *)

type append_report = {
  appends : int;
  log_server_us : int;  (** via the log server *)
  modify_us : int;  (** via BULLET.MODIFY (server-side copy) *)
  naive_us : int;  (** read + whole-file re-create from the client *)
}

val append_ablation : ?appends:int -> ?record_bytes:int -> ?base_bytes:int -> unit -> append_report
(** The log-file problem of §2: three ways to append under the immutable
    model. *)

val run : unit -> string list
(** Print the section; it writes no files. *)

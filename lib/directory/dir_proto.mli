(** Directory service wire protocol.

    The directory capability travels in the header capability slot;
    names and secondary capabilities travel in the body ([target-cap ++
    name] for enter/replace, [intent op ++ name] for the 2PC legs).
    An unknown command, 7, 9 and 10 included, answers [Bad_request].
    Deleting a directory, narrowing its capability and checkpointing
    are in-process calls of {!Dir_server} only. *)

val cmd_make_dir : int

val cmd_lookup : int

val cmd_enter : int

val cmd_replace : int

val cmd_remove_name : int

val cmd_list : int

val cmd_versions : int

val cmd_get_root : int

val cmd_resolve : int

val cmd_lookup_lease : int
(** Like [cmd_lookup] but also grants a lease: reply carries the bound
    capability plus [arg0] = directory epoch, [arg1] = lease duration µs. *)

val cmd_renew_lease : int
(** Cheap revalidation: reply [arg0] = epoch, [arg1] = lease duration µs. *)

val cmd_txn_prepare : int
(** 2PC prepare ([arg0] = txn id, body = {!encode_txn_intent}): vote on
    one binding action and lock the binding under an intent. The reply
    status is the vote. Commands 25..27 (and the Bullet service's
    20..22) are globally unique so the fault injector can classify 2PC
    legs by command number. *)

val cmd_txn_commit : int
(** 2PC commit ([arg0] = txn id, body = the intent again). Idempotent;
    carries the full intent so an amnesiac (healed) replica can still
    apply the decision. *)

val cmd_txn_abort : int
(** 2PC abort ([arg0] = txn id): presumed abort — drops every intent of
    the transaction, unknown ids answer [Ok]. *)

val encode_named_cap : Amoeba_cap.Capability.t -> string -> bytes
(** Body layout of enter/replace requests: target capability followed by
    the name. *)

val encode_txn_intent : Dir_server.intent_op -> string -> bytes
(** Body layout of txn prepare/commit requests: the intent op as
    {!Dir_server.add_intent_op} writes it, then the name as the rest of
    the body. *)

val encode_listing : (string * Amoeba_cap.Capability.t) list -> bytes

val decode_listing : bytes -> (string * Amoeba_cap.Capability.t) list
(** Raises {!Amoeba_sim.Codec.Truncated} on a short body. *)

val decode_caps : bytes -> Amoeba_cap.Capability.t list

val dispatch : Dir_server.t -> Amoeba_rpc.Message.t -> Amoeba_rpc.Message.t

val serve : Dir_server.t -> Amoeba_rpc.Transport.t -> unit

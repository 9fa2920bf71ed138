(** Client stubs for the directory service, including client-side path
    resolution ("/"-separated walks over directory capabilities).

    Stubs raise {!Amoeba_rpc.Status.Error} on non-[Ok] replies. *)

type t

val connect :
  ?model:Amoeba_rpc.Net_model.t ->
  ?link:Amoeba_rpc.Link.t ->
  Amoeba_rpc.Transport.t ->
  Amoeba_cap.Port.t ->
  t
(** [link] tags every transaction with a link class so link-scoped fault
    plans can target it; see {!Amoeba_rpc.Transport.trans}. *)

val port : t -> Amoeba_cap.Port.t

val get_root : t -> Amoeba_cap.Capability.t

val make_dir : t -> Amoeba_cap.Capability.t

val lookup : t -> Amoeba_cap.Capability.t -> string -> Amoeba_cap.Capability.t

val lookup_lease : t -> Amoeba_cap.Capability.t -> string -> Amoeba_cap.Capability.t * int * int
(** Lookup plus a lease grant: [(newest, epoch, lease_us)]. Callers must
    date the lease from the time they {e sent} the request; see
    {!Dir_server.lookup_lease}. *)

val renew_lease : t -> Amoeba_cap.Capability.t -> int * int
(** Cheap revalidation of a directory's bindings: [(epoch, lease_us)]. *)

val enter : t -> Amoeba_cap.Capability.t -> string -> Amoeba_cap.Capability.t -> unit

val replace :
  t -> Amoeba_cap.Capability.t -> string -> Amoeba_cap.Capability.t -> Amoeba_cap.Capability.t option
(** Returns the displaced newest version, if the name was bound. *)

val remove_name : t -> Amoeba_cap.Capability.t -> string -> unit

val list : t -> Amoeba_cap.Capability.t -> (string * Amoeba_cap.Capability.t) list

val versions : t -> Amoeba_cap.Capability.t -> string -> Amoeba_cap.Capability.t list

(** {1 Two-phase commit legs}

    Result-typed rather than raising: a no-vote and a decision-leg
    timeout are outcomes the {!Amoeba_txn} coordinator branches on.
    Each leg carries a fresh xid, which the pair's serve-side dedup
    cache uses to absorb injected duplicates. *)

val txn_prepare :
  t ->
  txn:int ->
  Amoeba_cap.Capability.t ->
  string ->
  Dir_server.intent_op ->
  (unit, Amoeba_rpc.Status.t) result

val txn_commit :
  t ->
  txn:int ->
  Amoeba_cap.Capability.t ->
  string ->
  Dir_server.intent_op ->
  (unit, Amoeba_rpc.Status.t) result

val txn_abort : t -> txn:int -> (unit, Amoeba_rpc.Status.t) result

val resolve : t -> Amoeba_cap.Capability.t -> string -> Amoeba_cap.Capability.t
(** [resolve t dir "a/b/c"] resolves the whole path server-side in one
    RPC; empty components are ignored, so absolute-looking paths work. *)

val resolve_stepwise : t -> Amoeba_cap.Capability.t -> string -> Amoeba_cap.Capability.t
(** The naive client-side walk, one lookup RPC per component; kept for
    comparison (the WAN benchmark shows why the one-RPC form exists). *)

val mkdir_path : t -> Amoeba_cap.Capability.t -> string -> Amoeba_cap.Capability.t
(** Create (or reuse) each directory along the path, returning the last
    one. *)

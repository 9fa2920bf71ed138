(** The Amoeba directory server.

    "Directories are two-column tables, the first column containing
    names, and the second containing the corresponding capabilities.
    Directories are objects themselves, and can be addressed by
    capabilities." (paper §2.1)

    This server provides naming and versioning for Bullet files (and any
    other capability). Each directory is persisted {e as a Bullet file}:
    every mutation serialises the directory and creates a {e new}
    immutable file, then deletes the old one — the paper's version
    mechanism in action, and the reason client caching of immutable files
    is trivially consistent ("checking if a cached copy of a file is
    still current is simply done by looking up its capability in the
    directory service").

    Each name holds a stack of versions (newest first, as in the Cedar
    file system the paper cites); installing a version beyond the
    configured depth deletes the oldest from the Bullet server. *)

type t

type config = {
  max_versions : int;  (** versions retained per name (≥ 1) *)
  lease_us : int;  (** duration of binding leases granted to clients *)
}

val default_config : config
(** 3 versions, 500 ms leases. *)

val create : ?config:config -> ?seed:int64 -> store:Bullet_core.Client.t -> unit -> t
(** A directory server backed by the given Bullet service. The root
    directory is created immediately. *)

val port : t -> Amoeba_cap.Port.t

val root : t -> Amoeba_cap.Capability.t
(** Capability for the root directory, with all rights. *)

val stats : t -> Amoeba_sim.Stats.t

(** {1 Operations} *)

val make_dir : t -> Amoeba_cap.Capability.t
(** Create a fresh, empty directory object (not yet named anywhere). *)

val lookup :
  t -> Amoeba_cap.Capability.t -> string -> (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** Newest version bound to the name; needs the read right. *)

val enter :
  t ->
  Amoeba_cap.Capability.t ->
  string ->
  Amoeba_cap.Capability.t ->
  (unit, Amoeba_rpc.Status.t) result
(** Bind a name. Fails with [Exists] if already bound (use {!replace} to
    install a new version); needs the modify right. *)

val replace :
  t ->
  Amoeba_cap.Capability.t ->
  string ->
  Amoeba_cap.Capability.t ->
  (Amoeba_cap.Capability.t option, Amoeba_rpc.Status.t) result
(** Atomically install a new version of a binding, returning the previous
    newest version (if any). Retains up to [max_versions]; older Bullet
    files are deleted. The binding need not exist yet. *)

val versions :
  t -> Amoeba_cap.Capability.t -> string -> (Amoeba_cap.Capability.t list, Amoeba_rpc.Status.t) result
(** All retained versions, newest first. *)

(** {1 Leases}

    Gray & Cheriton leases over directory bindings, the invalidation
    protocol for client whole-file caches ({!Amoeba_lease.Station}).
    Every directory carries an {e epoch}, bumped by {!replace} and
    {!remove_name}. A lease is a promise that the epoch will not change
    before [now + lease_us]: epoch-bumping mutations first wait out the
    latest granted horizon on the simulated clock (the write-wait), so a
    client that discards cached bindings when its lease deadline passes
    can never serve a byte that a completed mutation replaced. *)

val lookup_lease :
  t ->
  Amoeba_cap.Capability.t ->
  string ->
  (Amoeba_cap.Capability.t * int * int, Amoeba_rpc.Status.t) result
(** {!lookup} plus a lease: [(newest, epoch, lease_us)]. The client must
    date the lease from its {e request send} time, which is never later
    than the server's grant time. *)

val renew_lease :
  t -> Amoeba_cap.Capability.t -> (int * int, Amoeba_rpc.Status.t) result
(** The cheap revalidation call: grants a fresh lease on the directory and
    returns [(epoch, lease_us)]. If the epoch matches what the client saw
    at {!lookup_lease} time, every binding it cached from this directory
    is still current; otherwise it must re-look-up. *)

val epoch : t -> Amoeba_cap.Capability.t -> (int, Amoeba_rpc.Status.t) result
(** Current epoch of a directory (no lease granted, no CPU charge);
    for tests and tooling. *)

val resolve :
  t -> Amoeba_cap.Capability.t -> string -> (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** Walk a "/"-separated path server-side in one call — one RPC instead
    of one per component, which matters when the directory server sits
    across a gateway. Empty components are ignored; intermediate
    components must name directories of this server. *)

val remove_name :
  t -> Amoeba_cap.Capability.t -> string -> (unit, Amoeba_rpc.Status.t) result
(** Drop a binding (all versions). The named objects themselves are not
    deleted — capabilities may be shared. *)

val list : t -> Amoeba_cap.Capability.t -> ((string * Amoeba_cap.Capability.t) list, Amoeba_rpc.Status.t) result
(** Current bindings, name-sorted, newest version of each. *)

val delete_dir : t -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result
(** Delete an (empty) directory object; [Bad_request] if non-empty. *)

val restrict :
  t ->
  Amoeba_cap.Capability.t ->
  Amoeba_cap.Rights.t ->
  (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result

(** {1 Two-phase commit participant}

    The directory side of the {!Amoeba_txn} protocol. A prepare
    validates one binding action and records an {e intent} — a lock on
    that binding: until the coordinator decides, conflicting ordinary
    mutations and other transactions' prepares on the same binding are
    refused with [Exists]. Commit applies the action through the normal
    mutation path (so epoch bumps still wait out granted lease horizons)
    and remembers the decision so a coordinator re-send is answered [Ok]
    rather than applied twice; abort is by transaction id and unknown
    transactions answer [Ok] (presumed abort). Intents and applied
    decisions are replicated, deterministic state: the checkpoint
    carries both — unlike lease horizons — so a replica healed from its
    peer still knows its in-doubt bindings. *)

type intent_op =
  | Txn_enter of Amoeba_cap.Capability.t
  | Txn_replace of Amoeba_cap.Capability.t
  | Txn_remove

val txn_prepare :
  t ->
  txn:int ->
  Amoeba_cap.Capability.t ->
  string ->
  intent_op ->
  (unit, Amoeba_rpc.Status.t) result
(** Vote on one binding action. [Ok] locks the binding under an intent;
    any error is a no-vote: [Exists] for a locked binding or an
    already-bound {!Txn_enter} name, [Not_found] for a {!Txn_remove} of
    an unbound name. Needs the modify right. *)

val txn_commit :
  t ->
  txn:int ->
  Amoeba_cap.Capability.t ->
  string ->
  intent_op ->
  (unit, Amoeba_rpc.Status.t) result
(** Apply a decided action and drop its intent. Idempotent: a decision
    already applied — remembered, or structurally visible (the name
    already binds the committed capability; the removed name is gone) —
    answers [Ok] without mutating. Carries the full intent so a replica
    that lost the prepare to a heal can still comply. *)

val txn_abort : t -> txn:int -> (unit, Amoeba_rpc.Status.t) result
(** Drop every intent of the transaction. Always [Ok] — aborting an
    unknown transaction is the presumed-abort rule at work. *)

val txn_pending : t -> (int * int * string) list
(** Pending intents as [(txn, dir object, name)] triples, in prepare
    order; for experiments and fsck-style audits. *)

val txn_pending_count : t -> int

(** {1 Persistence} *)

val checkpoint : t -> (Amoeba_cap.Capability.t, Amoeba_rpc.Status.t) result
(** Serialise the server's directory table to a new Bullet file and
    return its capability; give it to {!restore} after a restart. Each
    checkpoint deletes the previous checkpoint file. *)

val restore :
  ?config:config ->
  ?seed:int64 ->
  ?from:Bullet_core.Client.t ->
  store:Bullet_core.Client.t ->
  Amoeba_cap.Capability.t ->
  (t, Amoeba_rpc.Status.t) result
(** Rebuild a directory server from a checkpoint capability. The [seed]
    must match the original server's so capability seals verify. The
    checkpoint and directory files are read through [from] (default
    [store]); future persistence goes through [store] — this is how a
    replica is rebuilt from its peer's storage (see {!Dir_pair}). *)

val repersist : t -> unit
(** Rewrite every directory as a fresh Bullet file through this server's
    own store; used after a cross-store {!restore} so the replica no
    longer depends on its peer's files. *)

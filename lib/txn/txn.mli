(** Atomic multi-object operations: a two-phase commit coordinator over
    Bullet servers and replicated directory pairs.

    The paper's servers are deliberately single-object ("the Bullet
    server does not provide atomic update across files"); this module
    supplies the missing piece for the three multi-object operations the
    naming layer actually needs — create-and-bind, rename across
    directories, and replace-with-delete — without touching the
    single-object fast paths.

    The protocol is classic presumed-abort 2PC with a durable
    coordinator log ({!Wal}):

    - {b prepare}: each participant validates its action, makes it
      durable-but-invisible (a pending Bullet object excluded from the
      live set; a locked directory binding) and votes via its reply
      status. Any no-vote or timeout aborts the transaction.
    - {b decision}: the WAL [Commit] record is the commit point. Each
      decision leg carries the full action again, so a participant that
      lost its prepared state to a crash can still comply, and replays
      are answered [Ok] (idempotence), never applied twice.
    - {b recovery}: {!recover} re-reads the WAL; [Begin] without
      [Commit] aborts everywhere (unknown transactions answer [Ok] —
      the presumed-abort rule), [Commit] without [Done] re-sends the
      decisions. Cap-form Bullet aborts double as the orphan GC for
      servers that lost their pending tables.

    Crash edges are injected through {!Amoeba_fault.Injector.txn_point}:
    the coordinator announces each protocol position and an armed
    [txn_crash] directive fires the experiment's handler, which raises
    {!Crashed} to unwind the run exactly where a real coordinator would
    die. The WAL survives; the experiment then drives {!recover}. *)

exception Crashed of Amoeba_fault.Plan.txn_edge
(** Raised by experiment crash handlers out of
    {!Amoeba_fault.Injector.txn_point}; never raised by this module
    itself. *)

type outcome = Committed | Aborted

val outcome_name : outcome -> string

type t

val create :
  ?injector:Amoeba_fault.Injector.t ->
  ?metrics:Amoeba_metrics.Metrics.t ->
  bullets:Bullet_core.Client.t list ->
  dirs:Amoeba_dir.Dir_client.t list ->
  unit ->
  t
(** A coordinator over the given participant clients (decision legs are
    routed by capability port). [injector] wires the crash points;
    [metrics] registers the coordinator's counters under the [txn.]
    prefix ([txn.txns], [txn.prepared] / [txn.committed] /
    [txn.aborted], 0 from creation, [txn.unresolved_commits] /
    [txn.unresolved_aborts] for decision or abort legs that timed out,
    [txn.recovered_commits] / [txn.recovered_aborts]) and the
    [txn.in_doubt] gauge into the given registry — the
    TXN experiment mounts them on the Bullet server's registry so
    STD_STATUS and [bullet_top] surface them. *)

val wal : t -> Wal.t

val in_doubt_count : t -> int
(** Transactions begun but not yet resolved, read off the WAL. *)

(** {1 Scenarios} *)

val create_and_bind :
  t ->
  bullet:Bullet_core.Client.t ->
  dir:Amoeba_dir.Dir_client.t ->
  dir_cap:Amoeba_cap.Capability.t ->
  name:string ->
  bytes ->
  outcome * Amoeba_cap.Capability.t option
(** Atomically create a Bullet file and bind it: after commit the name
    resolves to the new file; after abort the file does not exist and
    the name is unbound — never a bound name without a file or an
    unnamed live file. Returns the new capability on commit. *)

val rename :
  t ->
  from:Amoeba_dir.Dir_client.t * Amoeba_cap.Capability.t * string ->
  into:Amoeba_dir.Dir_client.t * Amoeba_cap.Capability.t * string ->
  outcome
(** Atomically move a binding between directories — possibly on two
    different directory pairs: remove from one, enter in the other,
    both or neither. *)

val replace_with_delete :
  t ->
  bullet:Bullet_core.Client.t ->
  dir:Amoeba_dir.Dir_client.t ->
  dir_cap:Amoeba_cap.Capability.t ->
  name:string ->
  bytes ->
  outcome * Amoeba_cap.Capability.t option
(** Atomically install new contents under a name and delete the
    displaced file: create the new Bullet file, condemn the old one,
    replace the binding — all or nothing. (Older entries of the name's
    version stack keep their capabilities; it is the displaced {e file}
    that dies.) *)

(** {1 Recovery} *)

type recovery = { resolved_commits : int; resolved_aborts : int }

val recover : t -> recovery
(** Resolve every in-doubt transaction in the WAL; idempotent (a second
    call finds nothing to do once all legs answer). *)

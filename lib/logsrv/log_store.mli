(** The log server.

    The paper concedes that immutable whole files are wrong for logs:
    "Each append to a log file ... would require the whole file to be
    copied. ... For log files we have implemented a separate server."

    This server gives logs an append-cheap representation while keeping
    the Bullet server as its only storage: a log is a {e chain of
    immutable Bullet segment files} plus a RAM tail buffer. Appends go to
    the tail; when the tail reaches the segment size (or {!sync} is
    called) it is sealed into a fresh Bullet file. Appending is therefore
    O(delta), not O(log), and everything durable is still immutable.
    Unsynced tail bytes are lost on a crash — the usual group-commit
    trade, surfaced in the API. *)

type t

type config = { segment_bytes : int  (** tail size that triggers a segment seal *) }

val default_config : config
(** 64 KB segments. *)

val create : ?config:config -> store:Bullet_core.Client.t -> unit -> t

val port : t -> Amoeba_cap.Port.t

val create_log : t -> Amoeba_cap.Capability.t
(** A new, empty log; the capability carries all rights. *)

val append : t -> Amoeba_cap.Capability.t -> bytes -> (int, Amoeba_rpc.Status.t) result
(** Append bytes; returns the log length after the append. Needs the
    modify right. Seals a segment automatically when the tail fills. *)

val sync : t -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result
(** Seal the current tail (if non-empty) into a durable segment. *)

val length : t -> Amoeba_cap.Capability.t -> (int, Amoeba_rpc.Status.t) result

val durable_length : t -> Amoeba_cap.Capability.t -> (int, Amoeba_rpc.Status.t) result
(** Bytes that would survive a log-server crash (sealed segments only). *)

val read_log : t -> Amoeba_cap.Capability.t -> (bytes, Amoeba_rpc.Status.t) result
(** The whole log: sealed segments (fetched from the Bullet server) plus
    the RAM tail. Needs the read right. *)

val segments : t -> Amoeba_cap.Capability.t -> (Amoeba_cap.Capability.t list, Amoeba_rpc.Status.t) result
(** Capabilities of the sealed segments, oldest first. *)

val compact_log : t -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result
(** Merge all sealed segments into one Bullet file (log rotation /
    truncating readers' cost); the tail is synced first. *)

val delete_log : t -> Amoeba_cap.Capability.t -> (unit, Amoeba_rpc.Status.t) result
(** Delete all segments and the log object. Needs the delete right. *)

val crash : t -> unit
(** Drop every RAM tail, as a server crash would; sealed segments
    survive. The server object stays usable (it restarts instantly). *)

(** UNIX emulation on top of the Bullet and directory services.

    "Recently we have implemented a UNIX emulation on top of the Bullet
    service supporting a wealth of existing software." (paper §5)

    Open files are whole-file RAM images (the Bullet model: a process
    operates on files that fit in its memory). Reads and writes work on
    the image; [close] of a written file creates a {e new immutable
    Bullet file} and atomically replaces the directory binding — the old
    version remains until the directory trims it. Consistency is
    close-to-open, like AFS, which the paper cites as validation of
    whole-file transfer. *)

type t
(** A mounted emulated file system (Bullet client + directory client +
    root directory). *)

type fd
(** An open file descriptor. *)

type open_flag =
  | O_RDONLY
  | O_WRONLY
  | O_RDWR
  | O_CREAT  (** create if absent *)
  | O_TRUNC  (** start from empty contents *)
  | O_APPEND  (** position at end before every write *)

type stat_info = {
  st_size : int;
  st_versions : int;  (** retained versions of the binding *)
  st_is_dir : bool;
}

exception Unix_error of string * string
(** [(function, message)] — e.g. [("open", "ENOENT a/b")]. *)

val mount : bullet:Bullet_core.Client.t -> dirs:Amoeba_dir.Dir_client.t -> root:Amoeba_cap.Capability.t -> t

val openfile : t -> string -> open_flag list -> fd
(** Paths are "/"-separated relative to the root. *)

val read : fd -> bytes -> int -> int
(** [read fd buf n] reads up to [n] bytes at the current offset into
    [buf]; returns bytes read (0 at EOF). *)

val write : fd -> bytes -> int
(** Write all of [buf] at the current offset (extending the image as
    needed); returns the byte count. *)

val lseek : fd -> int -> [ `SET | `CUR | `END ] -> int
(** Returns the new offset. *)

val close : t -> fd -> unit
(** Publishes a written file as a new version; a read-only close is
    free. Double close is an error. *)

val unlink : t -> string -> unit
(** Remove the binding and delete every retained version from the Bullet
    server. *)

val rename : t -> string -> string -> unit

val mkdir : t -> string -> unit

val readdir : t -> string -> string list
(** Sorted entry names. *)

val stat : t -> string -> stat_info

val with_file : t -> string -> open_flag list -> (fd -> 'a) -> 'a
(** Open, apply, close (also on exceptions). *)

val read_whole : t -> string -> string
(** Convenience: the full contents of a named file. *)

val write_whole : t -> string -> string -> unit
(** Convenience: create/replace a named file with the given contents. *)

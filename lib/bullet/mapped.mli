(** Client-side mapped files.

    The paper (§2.2): "Alternatively a section of the virtual address
    space can be reserved, after which the file can be mapped into the
    virtual memory of the process. In that case the underlying kernel
    performs the BULLET.READ function."

    A mapping reserves the address space immediately (one SIZE RPC) but
    fetches the contents lazily: the first access faults the {e whole
    file} in with a single READ RPC — whole-file transfer is exactly
    what makes mapping this simple — and later accesses are plain
    memory. *)

type t

val map : Client.t -> Amoeba_cap.Capability.t -> t
(** Reserve a mapping for the file: one [BULLET.SIZE] transaction; no
    data moves yet. Raises {!Amoeba_rpc.Status.Error}. *)

val length : t -> int

val is_resident : t -> bool
(** Whether the contents have been faulted in. *)

val get : t -> int -> char
(** Read one byte, faulting the file in on first touch. Raises
    [Invalid_argument] out of bounds. *)

val sub : t -> pos:int -> len:int -> bytes
(** Read a range (faults in on first touch). *)

val unmap : t -> unit
(** Drop the contents; a later access faults them in again. *)

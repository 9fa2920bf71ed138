(** Client of the baseline server, reproducing the paper's measurement
    procedure: the SUN 3/50 with local caching disabled by [lockf], so
    every 8 KB travels as its own RPC over the SunOS wire model.

    [write_file] is the paper's write test ([creat], [write], [close]);
    [read_file] is the read test ([lseek] + [read] per block). Stubs raise
    {!Amoeba_rpc.Status.Error} on failure. *)

type t

val connect : Amoeba_rpc.Transport.t -> Amoeba_cap.Port.t -> t
(** Over the {!Amoeba_rpc.Net_model.sunos_nfs} network model. *)

val block_bytes : int
(** Per-RPC transfer unit (8 KB). *)

val create : t -> Nfs_server.fhandle

val write_file : t -> Nfs_server.fhandle -> bytes -> unit
(** Sequential synchronous WRITE RPCs, one per 8 KB block. *)

val read_file : t -> Nfs_server.fhandle -> size:int -> bytes
(** Sequential READ RPCs, one per 8 KB block. *)

val write_at : t -> Nfs_server.fhandle -> off:int -> bytes -> unit
(** A single WRITE RPC (at most 8 KB). *)

val read_at : t -> Nfs_server.fhandle -> off:int -> len:int -> bytes
(** A single READ RPC (at most 8 KB). *)

val getattr_size : t -> Nfs_server.fhandle -> int

val remove : t -> Nfs_server.fhandle -> unit

(** Contiguous-extent allocation.

    Both the disk file area and the RAM cache hand out contiguous runs;
    the paper uses first-fit on disk ("For this we use a first fit
    strategy"). The allocator keeps a sorted free list with coalescing so
    external fragmentation — the cost the paper consciously accepts — is
    observable: {!largest_free} against {!free_total} is exactly the
    fragmentation figure the FRAG experiment reports. *)

type policy =
  | First_fit  (** the paper's choice *)
  | Best_fit  (** ablation alternative *)

type t

val create : ?policy:policy -> start:int -> length:int -> unit -> t
(** An allocator over the half-open range [\[start, start+length)], all
    free. Units are whatever the caller means (sectors, bytes). *)

val set_tracer : t -> Amoeba_trace.Trace.ctx option -> unit
(** Install (or with [None] remove) the tracer; traced allocators emit
    zero-length [alloc.take]/[alloc.free] events (extent bookkeeping
    charges no simulated time). *)

val alloc : t -> int -> int option
(** [alloc t n] reserves [n] units and returns the extent start, or [None]
    if no free extent is large enough. [n] must be positive. *)

val free : t -> start:int -> length:int -> unit
(** Return an extent; coalesces with free neighbours. Raises
    [Invalid_argument] if the extent overlaps free space (double free) or
    leaves the managed range. *)

val reserve : t -> start:int -> length:int -> unit
(** Mark an extent allocated during load-time reconstruction. Raises
    [Invalid_argument] if any part is already allocated. *)

val free_total : t -> int

val used_total : t -> int

val largest_free : t -> int

val fragment_count : t -> int
(** Number of free extents. *)

val fragmentation : t -> float
(** [1 - largest_free/free_total]; 0 when free space is one hole (or there
    is none). *)

val iter_free : t -> (start:int -> length:int -> unit) -> unit
(** Visit free extents in address order. *)

(** Physical disk geometry and timing parameters.

    The cost model is the classical seek + rotational-latency + media
    transfer decomposition. A request for sectors that continue exactly
    where the head stopped is sequential and pays media transfer only;
    any other request pays an average seek, an average half-rotation, and
    the transfer. This is what makes contiguous (Bullet) layouts fast and
    scattered (block-list) layouts slow, which is the paper's central
    physical argument. *)

type t = {
  sector_bytes : int;  (** physical sector size, bytes *)
  sector_count : int;  (** total sectors on the drive *)
  avg_seek_us : int;  (** average seek time, microseconds *)
  rotation_us : int;  (** time of one full platter rotation *)
  media_rate : int;  (** sustained media transfer rate, bytes/second *)
  controller_us : int;  (** fixed per-request controller overhead *)
}

val small : sectors:int -> t
(** A drive with [sectors] sectors and the 1989 timing parameters; used to
    keep unit-test images small. *)

val capacity_bytes : t -> int
(** Total capacity in bytes. *)

val transfer_us : t -> int -> int
(** [transfer_us g bytes] is the media transfer time for [bytes] bytes. *)

val access_us : t -> sequential:bool -> write:bool -> int -> int
(** [access_us g ~sequential ~write bytes] is the full cost of one
    request: controller overhead + (seek + half rotation unless
    [sequential]) + transfer, plus an extra half rotation for writes —
    synchronous writes on late-80s controllers routinely missed a
    revolution waiting for the target sector to come around again. *)

val sectors_for : t -> int -> int
(** [sectors_for g bytes] is the number of sectors needed to hold [bytes]
    (i.e. byte count rounded up to sector granularity). *)

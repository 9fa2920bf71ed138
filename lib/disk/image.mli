(** Host-file persistence for simulated drives.

    [bulletd] keeps its drives in image files so the stored files survive
    daemon restarts: the image records the drive geometry followed by the
    raw sector contents. Saving and loading are host I/O and charge no
    virtual time. *)

val decode_header : bytes -> (Geometry.t, string) result
(** Decode the file's header: an 8-byte magic and the six geometry
    fields as big-endian u32s. [Error] on short input or a foreign
    magic. *)

val save : Block_device.t -> string -> unit
(** Write the drive (geometry + contents) to the named file, atomically
    (via a temporary file and rename). *)

val load : id:string -> clock:Amoeba_sim.Clock.t -> string -> (Block_device.t, string) result
(** Recreate a drive from an image file. *)

val load_or_create :
  id:string ->
  clock:Amoeba_sim.Clock.t ->
  geometry:Geometry.t ->
  string ->
  (Block_device.t * [ `Loaded | `Created ], string) result
(** Load the image if the file exists, otherwise a fresh zeroed drive of
    the given geometry. *)

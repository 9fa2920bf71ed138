type t = {
  device_id : string;
  geometry : Geometry.t;
  clock : Amoeba_sim.Clock.t;
  storage : Bytes.t;
  stats : Amoeba_sim.Stats.t;
  bad_sectors : (int, unit) Hashtbl.t;
  mutable head : int;
  mutable failed : bool;
  mutable fault_hook : (sector:int -> count:int -> write:bool -> bool) option;
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

exception Failure of string

let create ~id ~geometry ~clock =
  {
    device_id = id;
    geometry;
    clock;
    storage = Bytes.make (Geometry.capacity_bytes geometry) '\000';
    stats = Amoeba_sim.Stats.create (Printf.sprintf "disk:%s" id);
    bad_sectors = Hashtbl.create 7;
    head = 0;
    failed = false;
    fault_hook = None;
    tracer = None;
  }

let id t = t.device_id

let geometry t = t.geometry

let clock t = t.clock

let capacity_bytes t = Geometry.capacity_bytes t.geometry

let check_range t ~sector ~count ~op =
  if count <= 0 || sector < 0 || sector + count > t.geometry.Geometry.sector_count then
    invalid_arg
      (Printf.sprintf "Block_device.%s: range [%d, %d) out of bounds on %s" op sector
         (sector + count) t.device_id)

let access_us t ~sector ~count ~write =
  Geometry.access_us t.geometry ~sequential:(sector = t.head) ~write
    (count * t.geometry.Geometry.sector_bytes)

let charge t ~sector ~count ~write =
  let sequential = sector = t.head in
  let bytes = count * t.geometry.Geometry.sector_bytes in
  let total_us = access_us t ~sector ~count ~write in
  (match t.tracer with
  | None -> Amoeba_sim.Clock.advance t.clock total_us
  | Some tr ->
    (* Split the access charge into its mechanical components.  The three
       spans advance exactly [access_us] in total, so traced and untraced
       runs tell identical time. *)
    let g = t.geometry in
    let seek_us = if sequential then 0 else g.Geometry.avg_seek_us in
    let rotate_us =
      (if sequential then 0 else g.Geometry.rotation_us / 2)
      + if write then g.Geometry.rotation_us / 2 else 0
    in
    let xfer_us = total_us - seek_us - rotate_us in
    if seek_us > 0 then begin
      Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.seek";
      Amoeba_sim.Clock.advance t.clock seek_us;
      Amoeba_trace.Trace.end_span tr
    end;
    if rotate_us > 0 then begin
      Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.rotate";
      Amoeba_sim.Clock.advance t.clock rotate_us;
      Amoeba_trace.Trace.end_span tr
    end;
    Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.xfer";
    Amoeba_sim.Clock.advance t.clock xfer_us;
    Amoeba_trace.Trace.end_span_attrs tr
      [
        ("drive", Amoeba_trace.Sink.S t.device_id);
        ("sector", Amoeba_trace.Sink.I sector);
        ("count", Amoeba_trace.Sink.I count);
        ("bytes", Amoeba_trace.Sink.I bytes);
        ("write", Amoeba_trace.Sink.I (if write then 1 else 0));
      ]);
  if not sequential then Amoeba_sim.Stats.incr t.stats "seeks";
  t.head <- sector + count

let check_health t ~sector ~count ~write ~op =
  if t.failed then raise (Failure (Printf.sprintf "%s: drive failed during %s" t.device_id op));
  if Hashtbl.length t.bad_sectors > 0 then
    for s = sector to sector + count - 1 do
      if Hashtbl.mem t.bad_sectors s then
        raise (Failure (Printf.sprintf "%s: bad sector %d during %s" t.device_id s op))
    done;
  match t.fault_hook with
  | Some hook when hook ~sector ~count ~write ->
    (* A transient media error: this access fails, the next may succeed.
       The drive still burned the access time before reporting it. *)
    Amoeba_sim.Stats.incr t.stats "transient_errors";
    (match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.transient_error"
        [ ("drive", Amoeba_trace.Sink.S t.device_id); ("sector", Amoeba_trace.Sink.I sector) ]);
    charge t ~sector ~count ~write;
    raise (Failure (Printf.sprintf "%s: transient error at sector %d during %s" t.device_id sector op))
  | _ -> ()

(* The one timed access every read and write makes: range and health
   checks, fault hook, span, charge, head movement and stats. It moves
   no bytes; the callers do, once it has returned. *)
let access t ~sector ~count ~write =
  let op = if write then "write" else "read" in
  check_range t ~sector ~count ~op;
  check_health t ~sector ~count ~write ~op;
  (match t.tracer with
  | None -> ()
  | Some tr ->
    if write then
      Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.write"
    else Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.read");
  charge t ~sector ~count ~write;
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Amoeba_trace.Trace.end_span_attrs tr
      [ ("drive", Amoeba_trace.Sink.S t.device_id); ("sectors", Amoeba_trace.Sink.I count) ]);
  Amoeba_sim.Stats.incr t.stats (if write then "writes" else "reads");
  Amoeba_sim.Stats.add t.stats (if write then "sectors_written" else "sectors_read") count

let read_into t ~sector ~count ~dst ~dst_off ~len =
  let sector_bytes = t.geometry.Geometry.sector_bytes in
  if len < 0 || len > count * sector_bytes || dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Block_device.read_into: destination range out of bounds";
  access t ~sector ~count ~write:false;
  Bytes.blit t.storage (sector * sector_bytes) dst dst_off len

let write t ~sector data =
  let sector_bytes = t.geometry.Geometry.sector_bytes in
  let len = Bytes.length data in
  if len = 0 || len mod sector_bytes <> 0 then
    invalid_arg "Block_device.write: data must be a positive multiple of the sector size";
  access t ~sector ~count:(len / sector_bytes) ~write:true;
  Bytes.blit data 0 t.storage (sector * sector_bytes) len

let fail t = t.failed <- true

let repair t = t.failed <- false

let is_failed t = t.failed

let set_fault_hook t hook = t.fault_hook <- hook

let set_tracer t tracer = t.tracer <- tracer

let set_bad_sector t sector = Hashtbl.replace t.bad_sectors sector ()

let clear_bad_sector t sector = Hashtbl.remove t.bad_sectors sector

let copy_from ~src ~dst =
  if capacity_bytes src <> capacity_bytes dst then
    invalid_arg "Block_device.copy_from: drives differ in capacity";
  if src.failed then raise (Failure (src.device_id ^ ": drive failed during copy"));
  if dst.failed then raise (Failure (dst.device_id ^ ": drive failed during copy"));
  let bytes = capacity_bytes src in
  (* One sequential pass over each drive: the reads and writes overlap in
     practice, so charge the slower of the two plus one seek each. *)
  let pass g ~write = Geometry.access_us g ~sequential:false ~write bytes in
  Amoeba_sim.Clock.advance src.clock
    (max (pass src.geometry ~write:false) (pass dst.geometry ~write:true));
  Bytes.blit src.storage 0 dst.storage 0 bytes;
  Amoeba_sim.Stats.incr src.stats "full_copies_out";
  Amoeba_sim.Stats.incr dst.stats "full_copies_in";
  src.head <- 0;
  dst.head <- 0

let stats t = t.stats

let peek t ~sector ~count =
  check_range t ~sector ~count ~op:"peek";
  let sector_bytes = t.geometry.Geometry.sector_bytes in
  Bytes.sub t.storage (sector * sector_bytes) (count * sector_bytes)

let read t ~sector ~count =
  access t ~sector ~count ~write:false;
  peek t ~sector ~count

let peek_into t ~sector ~dst ~dst_off ~len =
  let sector_bytes = t.geometry.Geometry.sector_bytes in
  check_range t ~sector ~count:(max 1 (Geometry.sectors_for t.geometry len)) ~op:"peek";
  Bytes.blit t.storage (sector * sector_bytes) dst dst_off len

let poke t ~sector data =
  let sector_bytes = t.geometry.Geometry.sector_bytes in
  let len = Bytes.length data in
  if len = 0 || len mod sector_bytes <> 0 then
    invalid_arg "Block_device.poke: data must be a positive multiple of the sector size";
  check_range t ~sector ~count:(len / sector_bytes) ~op:"poke";
  Bytes.blit data 0 t.storage (sector * sector_bytes) len

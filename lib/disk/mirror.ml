(* Each drive gets a slot: the device, its dirty-sector map, and whether
   an online resync is in flight for it. The mirror's state machine per
   drive is

     clean (online, no dirty sectors)
       --fail-->        offline   (writes landing meanwhile mark dirty)
       --rejoin-->      resyncing (repaired, fully dirty, syncing = true)
       --last clear-->  clean

   A write the drive raises on takes it from clean (or resyncing) to
   resyncing with that range dirty, and [recover] short-circuits
   offline -> clean with the paper's whole-disk copy. *)
type slot = { device : Block_device.t; dirty : Dirty.t; mutable syncing : bool }

type pending = { target : slot; at_sector : int; data : bytes }

type t = {
  slots : slot array;
  clock : Amoeba_sim.Clock.t;
  pending : pending Queue.t;
  stats : Amoeba_sim.Stats.t;
  mutable tracer : Amoeba_trace.Trace.ctx option;
}

type sync_state = Clean | Degraded | Resyncing of { sectors_remaining : int }

exception No_live_drive

let create drives =
  match drives with
  | [] -> invalid_arg "Mirror.create: empty drive list"
  | first :: rest ->
    let geometry = Block_device.geometry first in
    let same_geometry d = Block_device.geometry d = geometry in
    if not (List.for_all same_geometry rest) then
      invalid_arg "Mirror.create: drives must share a geometry";
    let slot device =
      {
        device;
        dirty = Dirty.create ~sectors:geometry.Geometry.sector_count;
        syncing = false;
      }
    in
    {
      slots = Array.of_list (List.map slot drives);
      clock = Block_device.clock first;
      pending = Queue.create ();
      stats = Amoeba_sim.Stats.create "mirror";
      tracer = None;
    }

let set_tracer t tracer =
  t.tracer <- tracer;
  Array.iter (fun s -> Block_device.set_tracer s.device tracer) t.slots

let drives t = Array.to_list (Array.map (fun s -> s.device) t.slots)

let geometry t = Block_device.geometry t.slots.(0).device

let clock t = t.clock

let slot_live s = not (Block_device.is_failed s.device)

let live_slots t = List.filter slot_live (Array.to_list t.slots)

let live_count t =
  Array.fold_left (fun n s -> if slot_live s then n + 1 else n) 0 t.slots

let sync_state t =
  if Array.exists (fun s -> not (slot_live s)) t.slots then Degraded
  else if Array.exists (fun s -> s.syncing) t.slots then
    Resyncing
      {
        sectors_remaining =
          Array.fold_left
            (fun n s -> if s.syncing then n + Dirty.remaining s.dirty else n)
            0 t.slots;
      }
  else Clean

let sync_state_label t =
  match sync_state t with
  | Clean -> "clean"
  | Degraded -> "degraded"
  | Resyncing { sectors_remaining } -> Printf.sprintf "resyncing:%d" sectors_remaining

(* The last dirty sector just got cleared (by a resync step, a foreground
   write or a read-repair): the drive is a full replica again. *)
let check_complete t slot =
  if slot.syncing && Dirty.remaining slot.dirty = 0 then begin
    slot.syncing <- false;
    Amoeba_sim.Stats.incr t.stats "resyncs_completed";
    match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Disk ~name:"mirror.resync_done"
        [ ("drive", Amoeba_trace.Sink.S (Block_device.id slot.device)) ]
  end

let sector_count_of t data = Bytes.length data / (geometry t).Geometry.sector_bytes

(* One drive's write of [data]; [false] if the drive raised. *)
let write_slot slot ~sector data =
  match Block_device.write slot.device ~sector data with
  | () -> true
  | exception Block_device.Failure _ -> false

(* Where a write landed, the range is current again; a live drive that
   raised keeps its old bytes there, so it resyncs the range like a
   returning drive. *)
let settle_write t slot ~sector ~count ~landed =
  if landed then begin
    if slot.syncing then begin
      Dirty.clear slot.dirty ~sector ~count;
      check_complete t slot
    end
  end
  else begin
    Dirty.mark slot.dirty ~sector ~count;
    slot.syncing <- true;
    Amoeba_sim.Stats.incr t.stats "write_failures"
  end

let drain t =
  let apply { target; at_sector; data } =
    let count = sector_count_of t data in
    if slot_live target then
      let landed =
        Amoeba_sim.Clock.unobserved t.clock (fun () -> write_slot target ~sector:at_sector data)
      in
      settle_write t target ~sector:at_sector ~count ~landed
    else
      (* the write never landed: the region is stale on this drive *)
      Dirty.mark target.dirty ~sector:at_sector ~count
  in
  Queue.iter apply t.pending;
  Queue.clear t.pending

let crash t = Queue.clear t.pending

let pending_count t = Queue.length t.pending

(* A slot may serve a range, or be copied from, when it is online and
   its copy of the range is current: a resyncing slot that has not
   caught up there yet holds stale bytes. *)
let current slot ~sector ~count =
  slot_live slot && not (slot.syncing && Dirty.is_dirty slot.dirty ~sector ~count)

(* A live slot whose copy of a range just served from [src] is stale
   gets the range written back off the measured path — the read-repair
   that lets foreground traffic shrink the resync backlog instead of
   waiting behind it. The repair takes its bytes from [src] uncharged,
   as the write is. *)
let read_repair t slot ~src ~sector ~count =
  Amoeba_sim.Stats.incr t.stats "read_repairs";
  (match t.tracer with
  | None -> ()
  | Some tr ->
    Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Disk ~name:"mirror.read_repair"
      [
        ("drive", Amoeba_trace.Sink.S (Block_device.id slot.device));
        ("sector", Amoeba_trace.Sink.I sector);
      ]);
  let data = Block_device.peek src.device ~sector ~count in
  match
    Amoeba_sim.Clock.unobserved t.clock (fun () ->
        Block_device.write slot.device ~sector data)
  with
  | () ->
    Dirty.clear slot.dirty ~sector ~count;
    check_complete t slot
  | exception Block_device.Failure _ -> ()

(* One piece's timed access on [slot]; [false] if the drive raised. *)
let attempt t slot ~sector ~count =
  match Block_device.access slot.device ~sector ~count ~write:false with
  | () -> true
  | exception Block_device.Failure _ ->
    Amoeba_sim.Stats.incr t.stats "read_failovers";
    (match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Disk ~name:"mirror.failover"
        [ ("drive", Amoeba_trace.Sink.S (Block_device.id slot.device)) ]);
    false

(* A piece whose drive raised goes to the other current slots in slot
   order, one access after another. *)
let fail_over t ~failed ~sector ~count =
  let n = Array.length t.slots in
  let rec from i =
    if i = n then raise No_live_drive
    else
      let s = t.slots.(i) in
      if s != failed && current s ~sector ~count && attempt t s ~sector ~count then s
      else from (i + 1)
  in
  from 0

let read_cost slot ~sector ~count =
  Block_device.access_us slot.device ~sector ~count ~write:false

(* The pieces of a read, each [(sector, count, slot)]: the strictly
   cheapest, against the heads' current positions, of the whole range
   from one current slot and the first [count / 2] sectors from one with
   the rest from another at once. A tie goes to the whole range from the
   first current slot. *)
let plan t ~sector ~count =
  let n = Array.length t.slots and half = count / 2 in
  (* the best so far: slot [a] alone, or [a] then [b] *)
  let best_a = ref (-1) and best_b = ref (-1) and best_us = ref max_int in
  for a = 0 to n - 1 do
    if current t.slots.(a) ~sector ~count then begin
      let us = read_cost t.slots.(a) ~sector ~count in
      if us < !best_us then begin
        best_a := a;
        best_us := us
      end
    end
  done;
  if half > 0 then
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if a <> b && current t.slots.(a) ~sector ~count && current t.slots.(b) ~sector ~count
        then begin
          let us =
            max
              (read_cost t.slots.(a) ~sector ~count:half)
              (read_cost t.slots.(b) ~sector:(sector + half) ~count:(count - half))
          in
          if us < !best_us then begin
            best_a := a;
            best_b := b;
            best_us := us
          end
        end
      done
    done;
  if !best_a < 0 then raise No_live_drive
  else if !best_b < 0 then [ (sector, count, t.slots.(!best_a)) ]
  else [ (sector, half, t.slots.(!best_a)); (sector + half, count - half, t.slots.(!best_b)) ]

(* Once a piece is served from [src], every live slot whose copy of its
   range is stale is repaired from it. *)
let repair_stale t ~src ~sector ~count =
  for i = 0 to Array.length t.slots - 1 do
    let s = t.slots.(i) in
    if slot_live s && not (current s ~sector ~count) then read_repair t s ~src ~sector ~count
  done

let read_body t ~sector ~count ~dst ~dst_off ~len =
  let sector_bytes = (geometry t).Geometry.sector_bytes in
  if len < 0 || len > count * sector_bytes || dst_off < 0 || dst_off + len > Bytes.length dst then
    invalid_arg "Mirror.read_into: destination range out of bounds";
  drain t;
  if live_count t < Array.length t.slots then begin
    Amoeba_sim.Stats.incr t.stats "degraded_reads";
    match t.tracer with
    | None -> ()
    | Some tr ->
      Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Disk ~name:"mirror.degraded" []
  end;
  let pieces = plan t ~sector ~count in
  let ok =
    Amoeba_sim.Clock.parallel t.clock
      (List.map (fun (sector, count, s) () -> attempt t s ~sector ~count) pieces)
  in
  (* Failover runs after the parallel step, so a drive that takes over
     the other piece's range reads it after its own. *)
  let served =
    List.map2
      (fun (sector, count, s) ok ->
        let src = if ok then s else fail_over t ~failed:s ~sector ~count in
        repair_stale t ~src ~sector ~count;
        src)
      pieces ok
  in
  (* Uncharged copy of what each piece served into the caller's first
     [len] bytes: the timed accesses already paid for the transfer. *)
  List.iter2
    (fun (at, n, _) src ->
      let off = (at - sector) * sector_bytes in
      let bytes = min len (off + (n * sector_bytes)) - off in
      if bytes > 0 then
        Block_device.peek_into src.device ~sector:at ~dst ~dst_off:(dst_off + off) ~len:bytes)
    pieces served

let read_into t ~sector ~count ~dst ~dst_off ~len =
  match t.tracer with
  | None -> read_body t ~sector ~count ~dst ~dst_off ~len
  | Some tr ->
    Amoeba_trace.Trace.in_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"mirror.read" (fun () ->
        read_body t ~sector ~count ~dst ~dst_off ~len)

let read t ~sector ~count =
  let len = count * (geometry t).Geometry.sector_bytes in
  let dst = Bytes.create len in
  read_into t ~sector ~count ~dst ~dst_off:0 ~len;
  dst

(* Some critical-path arms raised: each hands its place to the next
   background drive, written after the parallel step. Returns the
   background drives still to queue. *)
let replace_failed_arms t ~sector ~count data arms background =
  let rec promote missing = function
    | s :: rest when missing > 0 ->
      let ok = write_slot s ~sector data in
      let written, queued = promote (if ok then missing - 1 else missing) rest in
      ((s, ok) :: written, queued)
    | queued -> ([], queued)
  in
  let promoted, queued =
    promote (List.length (List.filter (fun (_, ok) -> not ok) arms)) background
  in
  let written = arms @ promoted in
  (* no drive took it: every live drive still holds the old bytes *)
  if not (List.exists snd written) then raise No_live_drive;
  List.iter (fun (s, landed) -> settle_write t s ~sector ~count ~landed) written;
  queued

let write_live t ~sync ~sector data =
  let count = sector_count_of t data in
  (* a write that cannot land on an offline drive leaves that drive's
     range stale — exactly what the rejoin resync must repair *)
  Array.iter
    (fun s -> if not (slot_live s) then Dirty.mark s.dirty ~sector ~count)
    t.slots;
  match live_slots t with
  | [] -> raise No_live_drive
  | targets ->
    let sync = max 0 (min sync (List.length targets)) in
    let rec split i = function
      | [] -> ([], [])
      | s :: rest ->
        let front, back = split (i + 1) rest in
        if i < sync then (s :: front, back) else (front, s :: back)
    in
    let foreground, background = split 0 targets in
    let write_to s () = write_slot s ~sector data in
    let landed = Amoeba_sim.Clock.parallel t.clock (List.map write_to foreground) in
    (* the common case, every arm landed, allocates nothing more *)
    let background =
      if List.for_all Fun.id landed then begin
        List.iter (fun s -> settle_write t s ~sector ~count ~landed:true) foreground;
        background
      end
      else replace_failed_arms t ~sector ~count data (List.combine foreground landed) background
    in
    let enqueue s =
      Queue.add { target = s; at_sector = sector; data = Bytes.copy data } t.pending
    in
    List.iter enqueue background

let write t ~sync ~sector data =
  match t.tracer with
  | None ->
    drain t;
    write_live t ~sync ~sector data
  | Some tr ->
    Amoeba_trace.Trace.in_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"mirror.write" (fun () ->
        drain t;
        write_live t ~sync ~sector data)

(* ---- recovery ---- *)

let all_clean slot =
  if Dirty.remaining slot.dirty > 0 then
    Dirty.clear slot.dirty ~sector:0 ~count:(Dirty.sectors slot.dirty);
  slot.syncing <- false

let recover t =
  drain t;
  if live_count t < Array.length t.slots then begin
    let whole = (geometry t).Geometry.sector_count in
    match Array.find_opt (fun s -> current s ~sector:0 ~count:whole) t.slots with
    | None -> raise No_live_drive
    | Some src ->
      let fix slot =
        if not (slot_live slot) then begin
          Block_device.repair slot.device;
          Block_device.copy_from ~src:src.device ~dst:slot.device;
          all_clean slot;
          Amoeba_sim.Stats.incr t.stats "resyncs"
        end
      in
      Array.iter fix t.slots
  end

let rejoin t =
  drain t;
  Array.iter
    (fun slot ->
      if Block_device.is_failed slot.device then begin
        Block_device.repair slot.device;
        (* trust nothing a returning drive holds *)
        Dirty.mark_all slot.dirty;
        slot.syncing <- true;
        Amoeba_sim.Stats.incr t.stats "rejoins";
        match t.tracer with
        | None -> ()
        | Some tr ->
          Amoeba_trace.Trace.event tr ~layer:Amoeba_trace.Sink.Disk ~name:"mirror.rejoin"
            [ ("drive", Amoeba_trace.Sink.S (Block_device.id slot.device)) ]
      end)
    t.slots

let copy_run t ~src ~dst ~sector ~count =
  let data = Block_device.read src.device ~sector ~count in
  Block_device.write dst.device ~sector data;
  Dirty.clear dst.dirty ~sector ~count;
  Amoeba_sim.Stats.incr t.stats "resync_steps";
  Amoeba_sim.Stats.add t.stats "resync_sectors" count;
  check_complete t dst

(* One copy onto [slot]: its next dirty run, from the first other drive
   current there. The sectors copied; 0 when the slot has no source for
   the run or the copy raised. *)
let resync_slot t ~batch slot =
  match Dirty.next_run slot.dirty ~limit:batch with
  | None ->
    check_complete t slot;
    0
  | Some (sector, count) -> (
    match Array.find_opt (fun s -> s != slot && current s ~sector ~count) t.slots with
    | None -> 0 (* no clean replica to copy from; stay as we are *)
    | Some src ->
      (match t.tracer with
      | None -> ()
      | Some tr ->
        Amoeba_trace.Trace.begin_span tr ~layer:Amoeba_trace.Sink.Disk ~name:"disk.resync");
      let copied =
        match copy_run t ~src ~dst:slot ~sector ~count with
        | () -> count
        | exception Block_device.Failure _ -> 0
      in
      (match t.tracer with
      | None -> ()
      | Some tr ->
        Amoeba_trace.Trace.end_span_attrs tr
          [
            ("drive", Amoeba_trace.Sink.S (Block_device.id slot.device));
            ("sector", Amoeba_trace.Sink.I sector);
            ("count", Amoeba_trace.Sink.I copied);
            ("remaining", Amoeba_trace.Sink.I (Dirty.remaining slot.dirty));
          ]);
      copied)

(* A resyncing drive that cannot take its copy must not hold up the
   others: the step goes on to the next one in slot order. *)
let resync_step ?(batch = 256) t =
  if batch <= 0 then invalid_arg "Mirror.resync_step: batch must be positive";
  drain t;
  let n = Array.length t.slots in
  let rec from i =
    if i = n then 0
    else
      let slot = t.slots.(i) in
      let copied = if slot.syncing && slot_live slot then resync_slot t ~batch slot else 0 in
      if copied > 0 then copied else from (i + 1)
  in
  from 0

let stats t = t.stats

let register_metrics t reg =
  let module M = Amoeba_metrics.Metrics in
  M.gauge reg "mirror.sync_state" (fun () ->
      match sync_state t with Clean -> 0 | Degraded -> 1 | Resyncing _ -> 2);
  M.gauge reg "mirror.sectors_remaining" (fun () ->
      (* a drive that is offline but not yet resyncing rejoins fully
         dirty, so its whole capacity is the prospective backlog *)
      let sectors = (geometry t).Geometry.sector_count in
      Array.fold_left
        (fun n s ->
          if s.syncing then n + Dirty.remaining s.dirty
          else if not (slot_live s) then n + sectors
          else n)
        0 t.slots);
  M.gauge reg "mirror.live_drives" (fun () -> live_count t);
  M.gauge reg "mirror.pending_writes" (fun () -> pending_count t);
  M.stats_source reg ~prefix:"mirror" t.stats

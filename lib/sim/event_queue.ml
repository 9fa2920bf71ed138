type 'a entry = { at : int; seq : int; pin : int option; site : string option; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array; (* min-heap on (at, seq); slot 0 unused *)
  mutable count : int;
  mutable next_seq : int;
  (* tie-sanitizer side state: pending entries bucketed by time,
     maintained only while the check is enabled so the normal path stays
     allocation-free *)
  pending : (int, (int * int option * string option) list ref) Hashtbl.t;
}

(* ---- the tie-race sanitizer ----

   Opt-in (AMOEBA_TIE_CHECK=1 or [set_tie_check true]); purely
   observational: ordering is ALWAYS (at, seq) with seq the
   insertion order, exactly as before this mode existed, so enabling the
   check can never change a simulation's bytes. What it adds is a
   discipline: when two events land on the same time, their
   relative order is decided by insertion order alone — a race the
   scheduler author may not have meant. The check demands that every
   member of such a collision carry an explicit [?pin] sequence number,
   strictly increasing in insertion order (so the annotation and the
   executed order agree), and reports the scheduling [?site]s of any
   unpinned or contradictory pair. *)

type tie = {
  tie_at : int;
  tie_first : string; (* earlier-queued site, or "<unpinned>" *)
  tie_second : string;
  tie_reason : string;
}

let tie_enabled = ref false
let all_ties : tie list ref = ref []

let set_tie_check on = tie_enabled := on
let tie_check_enabled () = !tie_enabled
let ties () = List.rev !all_ties
let clear_ties () = all_ties := []

let () =
  match Sys.getenv_opt "AMOEBA_TIE_CHECK" with
  | Some ("1" | "true" | "yes") -> tie_enabled := true
  | _ -> ()

let site_name = function Some s -> s | None -> "<unpinned>"

let tie_to_string t =
  Printf.sprintf "tie at t=%d between %s and %s (%s)" t.tie_at t.tie_first t.tie_second
    t.tie_reason

let record_tie ~at ~first ~second ~reason =
  all_ties := { tie_at = at; tie_first = first; tie_second = second; tie_reason = reason } :: !all_ties

let check_collision t (e : 'a entry) =
  let key = e.at in
  let bucket =
    match Hashtbl.find_opt t.pending key with
    | Some b -> b
    | None ->
      let b = ref [] in
      Hashtbl.replace t.pending key b;
      b
  in
  List.iter
    (fun (_, pin, site) ->
      match (pin, e.pin) with
      | Some p, Some q when q > p -> ()
      | Some p, Some q ->
        record_tie ~at:e.at ~first:(site_name site) ~second:(site_name e.site)
          ~reason:
            (Printf.sprintf "pins %d then %d do not agree with the insertion order that decides it"
               p q)
      | _ ->
        record_tie ~at:e.at ~first:(site_name site) ~second:(site_name e.site)
          ~reason:"relative order decided only by insertion order; pass ~pin to make it explicit")
    !bucket;
  bucket := (e.seq, e.pin, e.site) :: !bucket

let uncheck_collision t (e : 'a entry) =
  let key = e.at in
  match Hashtbl.find_opt t.pending key with
  | None -> ()
  | Some b ->
    b := List.filter (fun (seq, _, _) -> seq <> e.seq) !b;
    if !b = [] then Hashtbl.remove t.pending key

(* ---- the heap ---- *)

let create () =
  { heap = Array.make 16 (Obj.magic 0); count = 0; next_seq = 0; pending = Hashtbl.create 8 }

let less a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 1 then begin
    let parent = i / 2 in
    if less t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = 2 * i and right = (2 * i) + 1 in
  let smallest = ref i in
  if left <= t.count && less t.heap.(left) t.heap.(!smallest) then smallest := left;
  if right <= t.count && less t.heap.(right) t.heap.(!smallest) then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push ?pin ?site t ~time payload =
  if time < 0 then invalid_arg "Event_queue.push: negative time";
  let entry = { at = time; seq = t.next_seq; pin; site; payload } in
  t.next_seq <- t.next_seq + 1;
  if !tie_enabled then check_collision t entry;
  if t.count + 1 >= Array.length t.heap then begin
    let bigger = Array.make (2 * Array.length t.heap) entry in
    Array.blit t.heap 0 bigger 0 (t.count + 1);
    t.heap <- bigger
  end;
  t.count <- t.count + 1;
  t.heap.(t.count) <- entry;
  sift_up t t.count

let pop t =
  if t.count = 0 then None
  else begin
    let top = t.heap.(1) in
    t.heap.(1) <- t.heap.(t.count);
    t.count <- t.count - 1;
    if t.count > 0 then sift_down t 1;
    if !tie_enabled then uncheck_collision t top;
    Some (top.at, top.payload)
  end

let peek_time t = if t.count = 0 then None else Some t.heap.(1).at

let size t = t.count

let is_empty t = t.count = 0

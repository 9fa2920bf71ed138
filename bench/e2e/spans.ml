(* Host-clock spans the benchmark records around each layer it calls on the
   traced TCP run. The tree is fixed:

     op > tcp.trans > handler > bullet.dispatch | directory.dispatch
                                | durability.save > directory.checkpoint
                                                  | mirror.drain
                                                  | image.save (x2)

   Spans of one op share its id; a tcp.trans and the handler that served it
   share a request tag. They are kept in memory and written out at the end.
   A span's self time is its duration minus its children's. *)

type span = {
  op : int;
  req : int;  (** pairs a tcp.trans with its handler; -1 on op spans *)
  name : string;
  start_ns : int64;
  end_ns : int64;
}

let parent = function
  | "tcp.trans" -> "op"
  | "handler" -> "tcp.trans"
  | "bullet.dispatch" | "directory.dispatch" | "durability.save" -> "handler"
  | "directory.checkpoint" | "mirror.drain" | "image.save" -> "durability.save"
  | _ -> ""

let names =
  [
    "op";
    "tcp.trans";
    "handler";
    "bullet.dispatch";
    "directory.dispatch";
    "durability.save";
    "directory.checkpoint";
    "mirror.drain";
    "image.save";
  ]

type t = { lock : Mutex.t; mutable spans : span list; mutable recording : bool }

let create () = { lock = Mutex.create (); spans = []; recording = false }

let now = Monotonic_clock.now

let record t span =
  if t.recording then begin
    Mutex.lock t.lock;
    t.spans <- span :: t.spans;
    Mutex.unlock t.lock
  end

let spans t = List.rev t.spans

let duration s = Int64.to_float (Int64.sub s.end_ns s.start_ns)

let total_ns spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. spans

let count spans name = List.length (List.filter (fun s -> s.name = name) spans)

let overlap a b = max 0. (Int64.to_float (Int64.sub (min a.end_ns b.end_ns) (max a.start_ns b.start_ns)))

(* The parent instance of a span: same op, and same request below the
   op level. *)
let parent_key s =
  let p = parent s.name in
  (p, s.op, if p = "op" then -1 else s.req)

(* Self time per span name, in ns: each span's duration minus the part of
   it its children cover. A child is clipped to its own parent instance,
   so a mis-paired or mis-nested span shows up as self time beyond the op
   time. *)
let self_ns spans =
  let by_key = Hashtbl.create 4096 and covered = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_key (s.name, s.op, s.req) s) spans;
  List.iter
    (fun s ->
      let key = parent_key s in
      match Hashtbl.find_opt by_key key with
      | Some p when parent s.name <> "" ->
        let c = Option.value ~default:0. (Hashtbl.find_opt covered key) in
        Hashtbl.replace covered key (c +. overlap s p)
      | Some _ | None -> ())
    spans;
  let self s = duration s -. Option.value ~default:0. (Hashtbl.find_opt covered (s.name, s.op, s.req)) in
  List.map
    (fun name ->
      (name, List.fold_left (fun acc s -> if s.name = name then acc +. self s else acc) 0. spans))
    names

let to_jsonl spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"op\":%d,\"req\":%d,\"name\":%S,\"parent\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n" s.op
            s.req s.name (parent s.name) s.start_ns s.end_ns)
        spans)

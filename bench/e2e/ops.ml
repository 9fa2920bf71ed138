(* The benchmark's operations, written once over an abstract [call] so the
   TCP and in-process passes send identical requests. Every reply is
   checked: status, size, capability, and the bytes of every READ and
   READ_RANGE against the seed's contents. Byte comparisons run after an
   op's last reply, so they fall outside its timed interval (first send
   to last reply). *)

module Message = Amoeba_rpc.Message
module Status = Amoeba_rpc.Status
module Cap = Amoeba_cap.Capability
module Port = Amoeba_cap.Port
module Proto = Bullet_core.Proto
module Dir_proto = Amoeba_dir.Dir_proto
module Trace = Workload.Trace

type env = {
  call : Message.t -> Message.t;
  bullet : Port.t;
  dir : Port.t;
  root : Cap.t option;  (** the root directory, for workloads that name files *)
}

exception Failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Failed s)) fmt

let ok what reply =
  if reply.Message.status <> Status.Ok then
    fail "%s: %s" what (Status.to_string reply.Message.status);
  reply

let cap_of what reply =
  match reply.Message.cap with Some cap -> cap | None -> fail "%s: no capability" what

let to_bullet env ?cap ?arg0 ?arg1 ?body command =
  env.call (Message.request ~port:env.bullet ~command ?cap ?arg0 ?arg1 ?body ())

let to_dir env ~body command =
  match env.root with
  | None -> fail "no root directory"
  | Some root -> env.call (Message.request ~port:env.dir ~command ~cap:root ~body ())

let create env data =
  cap_of "create" (ok "create" (to_bullet env ~arg0:2 ~body:data Proto.cmd_create))

let size env cap = (ok "size" (to_bullet env ~cap Proto.cmd_size)).Message.arg0

let read env cap = (ok "read" (to_bullet env ~cap Proto.cmd_read)).Message.body

let read_range env cap ~pos ~len =
  (ok "read_range" (to_bullet env ~cap ~arg0:pos ~arg1:len Proto.cmd_read_range)).Message.body

let modify env cap ~pos data =
  cap_of "modify" (ok "modify" (to_bullet env ~cap ~arg0:2 ~arg1:pos ~body:data Proto.cmd_modify))

let delete env cap = ignore (ok "delete" (to_bullet env ~cap Proto.cmd_delete))

let lookup env name =
  cap_of "lookup" (ok "lookup" (to_dir env ~body:(Bytes.of_string name) Dir_proto.cmd_lookup))

let enter env name cap =
  ignore (ok "enter" (to_dir env ~body:(Dir_proto.encode_named_cap cap name) Dir_proto.cmd_enter))

(* The displaced newest version. *)
let replace env name cap =
  (ok "replace" (to_dir env ~body:(Dir_proto.encode_named_cap cap name) Dir_proto.cmd_replace))
    .Message.cap

let remove_name env name =
  ignore (ok "remove_name" (to_dir env ~body:(Bytes.of_string name) Dir_proto.cmd_remove_name))

(* ---- per-stream state ---- *)

type slot = { name : string; mutable cap : Cap.t; mutable data : bytes }

type state = {
  gen : Gen.t;
  stream : int;
  named : bool;  (** files are bound in the root directory *)
  mutable slots : slot array;
  mutable live : int;
  mutable created : int;  (** files this stream has made so far: the next file id *)
}

let state gen stream =
  { gen; stream; named = gen.Gen.workload = "bsd-trace"; slots = [||]; live = 0; created = 0 }

let fresh st size =
  let id = Gen.file_id ~stream:st.stream st.created in
  st.created <- st.created + 1;
  Gen.content st.gen ~id ~size

let next_name st = Printf.sprintf "c%d-%d" st.stream st.created

let push st slot =
  if st.live = Array.length st.slots then
    st.slots <- Array.append st.slots (Array.make (max 16 st.live) slot);
  st.slots.(st.live) <- slot;
  st.live <- st.live + 1

let slot st i =
  if i < 0 || i >= st.live then fail "slot %d of %d" i st.live;
  st.slots.(i)

let expect what got want = if not (Bytes.equal got want) then fail "%s: wrong bytes" what

let expect_cap what got want = if not (Cap.equal got want) then fail "%s: wrong capability" what

(* Create one file (and bind its name when the workload names files). *)
let add_file env st size =
  let name = next_name st in
  let data = fresh st size in
  let cap = create env data in
  if st.named then enter env name cap;
  push st { name; cap; data }

let populate env st = Array.iter (add_file env st) st.gen.Gen.streams.(st.stream).Gen.init

let live_bytes st =
  let n = ref 0 in
  for i = 0 to st.live - 1 do
    n := !n + Bytes.length st.slots.(i).data
  done;
  !n

(* The paper's read protocol: SIZE, then READ of the whole file. *)
let size_and_read env s cap =
  let n = size env cap in
  let body = read env cap in
  if n <> Bytes.length s.data then fail "size %d, expected %d" n (Bytes.length s.data);
  expect "read" body s.data

(* Install [cap] holding [data] as the new version of [s], deleting the
   version it displaces. *)
let swap_in env s cap data =
  let previous = replace env s.name cap in
  delete env s.cap;
  (match previous with
  | Some old -> expect_cap "replace" old s.cap
  | None -> fail "replace: no previous version");
  s.cap <- cap;
  s.data <- data

(* The BSD-like trace through the directory: read_whole is lookup + SIZE +
   READ, read_part lookup + READ_RANGE, rewrite/update CREATE or MODIFY +
   replace + DELETE of the old file, delete remove_name + DELETE, create
   CREATE + enter. *)
let bsd env st = function
  | Trace.Create { size } -> add_file env st size
  | Trace.Read_whole { victim } ->
    let s = slot st victim in
    let cap = lookup env s.name in
    size_and_read env s cap;
    expect_cap "lookup" cap s.cap
  | Trace.Read_part { victim; frac_pos; len } ->
    let s = slot st victim in
    let len = min len (Bytes.length s.data) in
    let pos = int_of_float (frac_pos *. float_of_int (Bytes.length s.data - len)) in
    let cap = lookup env s.name in
    let body = read_range env cap ~pos ~len in
    expect_cap "lookup" cap s.cap;
    expect "read_range" body (Bytes.sub s.data pos len)
  | Trace.Rewrite { victim; size } ->
    let s = slot st victim in
    let data = fresh st size in
    swap_in env s (create env data) data
  | Trace.Update { victim; frac_pos; len } ->
    let s = slot st victim in
    let old = Bytes.length s.data in
    let pos = int_of_float (frac_pos *. float_of_int old) in
    let delta = fresh st len in
    let data = Bytes.make (max old (pos + len)) '\000' in
    Bytes.blit s.data 0 data 0 old;
    Bytes.blit delta 0 data pos len;
    swap_in env s (modify env s.cap ~pos delta) data
  | Trace.Delete { victim } ->
    let s = slot st victim in
    remove_name env s.name;
    delete env s.cap;
    st.live <- st.live - 1;
    st.slots.(victim) <- st.slots.(st.live)

let exec env st = function
  | Gen.Read i ->
    let s = slot st i in
    size_and_read env s s.cap
  | Gen.Churn { slot = i; size } ->
    let s = slot st i in
    let data = fresh st size in
    let cap = create env data in
    delete env s.cap;
    s.cap <- cap;
    s.data <- data
  | Gen.Bsd op -> bsd env st op

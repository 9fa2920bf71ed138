type t = {
  client : Client.t;
  cap : Amoeba_cap.Capability.t;
  length : int;
  mutable resident : bytes option;
}

let map client cap =
  let length = Client.size client cap in
  { client; cap; length; resident = None }

let length t = t.length

let is_resident t = t.resident <> None

(* the "page fault": one whole-file READ *)
let fault_in t =
  match t.resident with
  | Some data -> data
  | None ->
    let data = Client.read_now t.client t.cap in
    t.resident <- Some data;
    data

let get t i =
  if i < 0 || i >= t.length then invalid_arg "Mapped.get: out of bounds";
  Bytes.get (fault_in t) i

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.length then invalid_arg "Mapped.sub: out of bounds";
  Bytes.sub (fault_in t) pos len

let unmap t = t.resident <- None

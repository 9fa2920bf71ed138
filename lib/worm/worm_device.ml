type slot = int

exception Write_once_violation

exception Platter_full

type t = {
  capacity : int;
  clock : Amoeba_sim.Clock.t;
  mutable burned : bytes list; (* newest first *)
  mutable count : int;
  mutable used : int;
  table : (int, bytes) Hashtbl.t;
  stats : Amoeba_sim.Stats.t;
}

let position_us = 80_000

let write_rate = 300_000 (* bytes/s *)

let read_rate = 600_000

let create ~capacity ~clock =
  {
    capacity;
    clock;
    burned = [];
    count = 0;
    used = 0;
    table = Hashtbl.create 64;
    stats = Amoeba_sim.Stats.create "worm";
  }

let used t = t.used

let records t = t.count

let append t data =
  let len = Bytes.length data in
  if t.used + len > t.capacity then raise Platter_full;
  Amoeba_sim.Clock.advance t.clock (position_us + (len * 1_000_000 / write_rate));
  let slot = t.count in
  Hashtbl.replace t.table slot (Bytes.copy data);
  t.burned <- data :: t.burned;
  t.count <- t.count + 1;
  t.used <- t.used + len;
  Amoeba_sim.Stats.incr t.stats "burns";
  Amoeba_sim.Stats.add t.stats "bytes_burned" len;
  slot

let read t slot =
  match Hashtbl.find_opt t.table slot with
  | None -> invalid_arg (Printf.sprintf "Worm_device.read: unknown slot %d" slot)
  | Some data ->
    Amoeba_sim.Clock.advance t.clock (position_us + (Bytes.length data * 1_000_000 / read_rate));
    Amoeba_sim.Stats.incr t.stats "reads";
    Bytes.copy data

let overwrite _t _slot _data = raise Write_once_violation

(* Deterministic metrics: registry + scrape + ring + codec. Everything
   here must be a pure function of the simulation — scrapes are stamped
   with virtual time and CI byte-diffs the encoded snapshots, so no
   wall clock, no unordered iteration. *)

module Stats = Amoeba_sim.Stats

exception Duplicate_metric of string

type instrument = I_gauge of (unit -> int) | I_source of Stats.t

type t = {
  reg_name : string;
  (* reverse registration order; scrapes sort by name, so order here only
     affects duplicate detection, which is order-independent *)
  mutable instruments : (string * instrument) list;
}

type registry = t

let create reg_name = { reg_name; instruments = [] }

let name t = t.reg_name

let register t key inst =
  if List.exists (fun (k, _) -> String.equal k key) t.instruments then
    raise (Duplicate_metric key);
  t.instruments <- (key, inst) :: t.instruments

let gauge t key f = register t key (I_gauge f)

let stats_source t ~prefix stats = register t prefix (I_source stats)

let metric_names t = List.sort String.compare (List.map fst t.instruments)

(* ---- snapshots ---- *)

type value =
  | Counter of int
  | Gauge of int
  | Hist of { count : int; sum : int; p50 : int; p95 : int; p99 : int; max_value : int }

type sample = { s_name : string; s_value : value }

type snapshot = { at_us : int; samples : sample list }

let hist_value h =
  Hist
    {
      count = Stats.Hist.count h;
      sum = Stats.Hist.sum h;
      p50 = Stats.Hist.percentile h 0.50;
      p95 = Stats.Hist.percentile h 0.95;
      p99 = Stats.Hist.percentile h 0.99;
      max_value = Stats.Hist.max_value h;
    }

let scrape t ~at_us =
  let expand (key, inst) =
    match inst with
    | I_gauge f -> [ { s_name = key; s_value = Gauge (f ()) } ]
    | I_source stats ->
      List.map
        (fun (k, v) -> { s_name = key ^ "." ^ k; s_value = Counter v })
        (Stats.counters stats)
      @ List.map
          (fun (k, h) -> { s_name = key ^ "." ^ k; s_value = hist_value h })
          (Stats.hists stats)
  in
  let samples =
    List.sort
      (fun a b -> String.compare a.s_name b.s_name)
      (List.concat_map expand t.instruments)
  in
  let rec check = function
    | a :: (b :: _ as rest) ->
      if String.equal a.s_name b.s_name then raise (Duplicate_metric a.s_name);
      check rest
    | [ _ ] | [] -> ()
  in
  check samples;
  { at_us; samples }

let find snap key =
  List.find_map
    (fun s -> if String.equal s.s_name key then Some s.s_value else None)
    snap.samples

let value_int = function Counter n | Gauge n -> n | Hist h -> h.count

let to_text snap =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "# at_us %d\n" snap.at_us);
  List.iter
    (fun s ->
      match s.s_value with
      | Counter n -> Buffer.add_string buf (Printf.sprintf "%s counter %d\n" s.s_name n)
      | Gauge n -> Buffer.add_string buf (Printf.sprintf "%s gauge %d\n" s.s_name n)
      | Hist h ->
        Buffer.add_string buf
          (Printf.sprintf "%s hist count %d sum %d p50 %d p95 %d p99 %d max %d\n" s.s_name
             h.count h.sum h.p50 h.p95 h.p99 h.max_value))
    snap.samples;
  Buffer.contents buf

(* ---- codec ----

   Big-endian: i64 at_us, u32 sample count, then per sample a u16 name
   length + name + kind byte (0 counter, 1 gauge, 2 hist) + payload
   (one i64, or six for a histogram). *)

let encode_snapshot snap =
  let buf = Buffer.create 256 in
  let i64 n = Buffer.add_int64_be buf (Int64.of_int n) in
  i64 snap.at_us;
  Buffer.add_int32_be buf (Int32.of_int (List.length snap.samples));
  List.iter
    (fun s ->
      Buffer.add_uint16_be buf (String.length s.s_name);
      Buffer.add_string buf s.s_name;
      match s.s_value with
      | Counter n ->
        Buffer.add_uint8 buf 0;
        i64 n
      | Gauge n ->
        Buffer.add_uint8 buf 1;
        i64 n
      | Hist h ->
        Buffer.add_uint8 buf 2;
        i64 h.count;
        i64 h.sum;
        i64 h.p50;
        i64 h.p95;
        i64 h.p99;
        i64 h.max_value)
    snap.samples;
  Buffer.to_bytes buf

let decode_snapshot b =
  let len = Bytes.length b in
  let pos = ref 0 in
  let need n k =
    if !pos + n > len then Error "snapshot truncated"
    else begin
      let at = !pos in
      pos := !pos + n;
      k at
    end
  in
  let i64 k = need 8 (fun at -> k (Int64.to_int (Bytes.get_int64_be b at))) in
  let ( let* ) = Result.bind in
  let* at_us = i64 (fun n -> Ok n) in
  let* count = need 4 (fun at -> Ok (Int32.to_int (Bytes.get_int32_be b at))) in
  if count < 0 then Error "snapshot: negative sample count"
  else begin
    let rec samples n acc =
      if n = 0 then Ok (List.rev acc)
      else
        let* nlen = need 2 (fun at -> Ok (Bytes.get_uint16_be b at)) in
        let* s_name = need nlen (fun at -> Ok (Bytes.sub_string b at nlen)) in
        let* kind = need 1 (fun at -> Ok (Bytes.get_uint8 b at)) in
        let* s_value =
          match kind with
          | 0 -> i64 (fun v -> Ok (Counter v))
          | 1 -> i64 (fun v -> Ok (Gauge v))
          | 2 ->
            let* count = i64 (fun v -> Ok v) in
            let* sum = i64 (fun v -> Ok v) in
            let* p50 = i64 (fun v -> Ok v) in
            let* p95 = i64 (fun v -> Ok v) in
            let* p99 = i64 (fun v -> Ok v) in
            let* max_value = i64 (fun v -> Ok v) in
            Ok (Hist { count; sum; p50; p95; p99; max_value })
          | k -> Error (Printf.sprintf "snapshot: unknown sample kind %d" k)
        in
        samples (n - 1) ({ s_name; s_value } :: acc)
    in
    let* samples = samples count [] in
    if !pos <> len then Error "snapshot: trailing bytes" else Ok { at_us; samples }
  end

(* ---- time series ---- *)

module Ring = struct
  type nonrec t = { capacity : int; mutable newest_first : snapshot list; mutable n : int }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Metrics.Ring.create: capacity must be positive";
    { capacity; newest_first = []; n = 0 }

  let push t snap =
    if t.n < t.capacity then begin
      t.newest_first <- snap :: t.newest_first;
      t.n <- t.n + 1
    end
    else
      (* drop the oldest: rebuild without the last element (rings are
         small — tens of snapshots — so the copy is irrelevant) *)
      t.newest_first <- snap :: List.filteri (fun i _ -> i < t.n - 1) t.newest_first

  let length t = t.n

  let latest t = match t.newest_first with [] -> None | s :: _ -> Some s

  let snapshots t = List.rev t.newest_first
end

module Scraper = struct
  module Clock = Amoeba_sim.Clock

  type nonrec t = {
    sc_registry : t;
    sc_ring : Ring.t;
    interval_us : int;
    clock : Clock.t;
    mutable next_due : int;
  }

  let create ~registry ~clock ~interval_us ~capacity =
    if interval_us <= 0 then invalid_arg "Metrics.Scraper.create: interval must be positive";
    {
      sc_registry = registry;
      sc_ring = Ring.create ~capacity;
      interval_us;
      clock;
      next_due = Clock.now clock;
    }

  let take t =
    let now = Clock.now t.clock in
    let snap = scrape t.sc_registry ~at_us:now in
    Ring.push t.sc_ring snap;
    t.next_due <- now + t.interval_us;
    snap

  let poll t = if Clock.now t.clock >= t.next_due then Some (take t) else None

  let force t = take t

  let ring t = t.sc_ring

  let registry t = t.sc_registry
end

(* amoeba-vet: whole-program analyses over the compiler's typed trees.

   The Parsetree lint (Lint) is pass one and stays purely syntactic;
   the passes here need resolved paths and the cross-unit view, so they
   read the [.cmt] artifacts dune leaves next to every compiled module
   (any dev build emits them; `dune build @check` builds them without
   linking). Three passes:

   - proto  : protocol conformance — every [cmd_*] constant must be
              matched by a serve/dispatch arm somewhere, no two cmds in
              a module may share a value, and every [encode_*] needs a
              [decode_*] somewhere in the scanned units (cross-file,
              unlike the same-file [wire-symmetry] lint rule).
   - clock  : interprocedural effect analysis — a function that reads
              the virtual clock and touches device/queue state, yet
              never (even transitively) charges simulated time, is
              "free work" that silently inflates throughput numbers.
   - taint  : persisted-bytes taint — a checkpoint/persist/replica-dump
              sink must not reach (through any call chain) a
              non-canonical byte source: float formatting, hash-order
              iteration, physical equality, Marshal, unstable hashes.

   All three are over-approximations on the call graph of top-level
   bindings; doc/ARCHITECTURE.md "Static analysis" spells out the
   sound/unsound edges. Suppressions use the same
   [(* lint: allow <rule-id> <justification> *)] grammar as the lint;
   the taint pass additionally honours a marker at the *source* site so
   one justified canonicalisation (e.g. Amoeba_sim.Tbl's sorted
   wrappers) silences every sink that reaches it. *)

type diagnostic = Lint.diagnostic = {
  file : string;
  line : int;
  rule : string;
  message : string;
}

type pass = Proto | Clock | Taint

let pass_name = function Proto -> "proto" | Clock -> "clock" | Taint -> "taint"

let pass_of_name = function
  | "proto" -> Some Proto
  | "clock" -> Some Clock
  | "taint" -> Some Taint
  | _ -> None

let rules =
  [
    ("vet-proto-duplicate-cmd", "two cmd_* constants in one module share the same wire value");
    ( "vet-proto-unhandled-cmd",
      "a cmd_* constant is never referenced from any serve/dispatch arm; requests with that id \
       would be unanswerable" );
    ( "vet-proto-orphan-codec",
      "an encode_*/decode_* has no counterpart anywhere in the scanned units (cross-file, unlike \
       wire-symmetry)" );
    ( "vet-proto-duplicate-metric",
      "two metric instruments in one module are registered under the same literal name; the \
       second registration raises Duplicate_metric at runtime" );
    ( "vet-clock-free-work",
      "reads the virtual clock and touches device/queue state but never charges simulated time \
       (Clock.advance), even transitively" );
    ( "vet-taint-persist",
      "a checkpoint/persist/replica-dump sink can reach a non-canonical byte source (float \
       formatting, hash-order iteration, physical equality, Marshal)" );
  ]

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

(* ---- normalized module paths ----

   Dune's wrapped libraries mangle module names ("Amoeba_sim__Clock")
   while references through the alias module typecheck as
   "Amoeba_sim.Clock"; splitting every component on "__" folds both
   spellings onto one dotted path. "Stdlib" and dune's "Dune__exe"
   executable prefix carry no information and are dropped. *)

let split_mangled name =
  let parts = ref [] and buf = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      if Buffer.length buf > 0 then parts := Buffer.contents buf :: !parts;
      Buffer.clear buf;
      i := !i + 2
    end
    else begin
      Buffer.add_char buf name.[!i];
      incr i
    end
  done;
  if Buffer.length buf > 0 then parts := Buffer.contents buf :: !parts;
  List.rev !parts

let normalize components =
  let flat = List.concat_map split_mangled components in
  let flat = match flat with "Stdlib" :: (_ :: _ as rest) -> rest | l -> l in
  match flat with "Dune" :: "exe" :: (_ :: _ as rest) -> rest | l -> l

let rec path_components (p : Path.t) =
  match p with
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> path_components p @ [ s ]
  | Path.Papply (a, _) -> path_components a
  | Path.Pextra_ty (p, _) -> path_components p

(* ---- per-unit facts ---- *)

type fn_info = {
  fn_name : string; (* dotted within the unit: "dispatch", "Sub.helper" *)
  fn_line : int;
  mutable fn_calls : string list list; (* normalized components of every value ref *)
  mutable fn_advances : bool;
  mutable fn_reads : bool;
  mutable fn_device : bool;
  mutable fn_sources : (string * int) list; (* taint source: description, line *)
}

type unit_info = {
  u_name : string; (* normalized dotted module path, e.g. "Bullet_core.Proto" *)
  u_file : string; (* source path as recorded in the cmt *)
  u_lib : bool;
  mutable u_cmds : (string * int * int) list; (* name, wire value, line *)
  mutable u_codecs : (string * int) list; (* name, line *)
  mutable u_cmd_refs : (string * string list * int) list; (* enclosing fn, ref components, line *)
  mutable u_fns : fn_info list;
  mutable u_spans : string list; (* trace span/event literal names *)
  mutable u_hooks : string list; (* fault-plan hook labels, on_-prefixed *)
  mutable u_metric_regs : (string * int) list; (* literal metric/prefix name, line *)
}

let scan_unit ~file ~modname (str : Typedtree.structure) =
  let u =
    {
      u_name = String.concat "." (normalize [ modname ]);
      u_file = file;
      (* test/fixtures holds deliberately-broken lib-shaped modules the
         fixture suite feeds back through these passes, so it is held to
         the lib rules too *)
      u_lib = Lint.under "lib" file || Lint.under "fixtures" file;
      u_cmds = [];
      u_codecs = [];
      u_cmd_refs = [];
      u_fns = [];
      u_spans = [];
      u_hooks = [];
      u_metric_regs = [];
    }
  in
  let new_fn name line =
    match List.find_opt (fun f -> String.equal f.fn_name name) u.u_fns with
    | Some f -> f
    | None ->
      let f =
        {
          fn_name = name;
          fn_line = line;
          fn_calls = [];
          fn_advances = false;
          fn_reads = false;
          fn_device = false;
          fn_sources = [];
        }
      in
      u.u_fns <- f :: u.u_fns;
      f
  in
  let note_ref fn comps line =
    let norm = normalize comps in
    fn.fn_calls <- norm :: fn.fn_calls;
    match List.rev norm with
    | [] -> ()
    | last :: rest_rev ->
      let prev = match rest_rev with m :: _ -> Some m | [] -> None in
      if starts_with "cmd_" last then u.u_cmd_refs <- (fn.fn_name, norm, line) :: u.u_cmd_refs;
      (match (prev, last) with
      | Some "Clock", ("advance" | "advance_to" | "parallel" | "unobserved") ->
        fn.fn_advances <- true
      | Some "Clock", ("now" | "elapsed") -> fn.fn_reads <- true
      | Some "Block_device", ("read" | "write" | "copy_from")
      | Some "Mirror", ("read" | "write")
      | Some "Worm_device", ("read" | "write" | "append")
      | Some "Event_queue", "push" ->
        fn.fn_device <- true
      | Some "Hashtbl", (("iter" | "fold") as f) ->
        fn.fn_sources <- ("Hashtbl." ^ f ^ " (hash-order iteration)", line) :: fn.fn_sources
      | Some "Hashtbl", (("hash" | "seeded_hash" | "hash_param") as f) ->
        fn.fn_sources <- ("Hashtbl." ^ f ^ " (unstable hash)", line) :: fn.fn_sources
      | Some "Marshal", _ ->
        fn.fn_sources <- ("Marshal (unstable byte format)", line) :: fn.fn_sources
      | Some "Float", "to_string" ->
        fn.fn_sources <- ("Float.to_string (float formatting)", line) :: fn.fn_sources
      | _, "string_of_float" ->
        fn.fn_sources <- ("string_of_float (float formatting)", line) :: fn.fn_sources
      | _, (("==" | "!=") as op) ->
        fn.fn_sources <- ("(" ^ op ^ ") (physical equality)", line) :: fn.fn_sources
      | _ -> ())
  in
  let expr_iter fn =
    let open Tast_iterator in
    let expr sub (e : Typedtree.expression) =
      (match e.exp_desc with
      | Typedtree.Texp_ident (p, _, _) -> note_ref fn (path_components p) (line_of e.exp_loc)
      | Typedtree.Texp_construct (_, cd, _) -> (
        match Types.get_desc cd.Types.cstr_res with
        | Types.Tconstr (p, _, _)
          when String.equal cd.Types.cstr_name "Float"
               && List.exists (String.equal "CamlinternalFormatBasics") (path_components p) ->
          fn.fn_sources <-
            ("%f/%g/%e conversion in a format literal (float formatting)", line_of e.exp_loc)
            :: fn.fn_sources
        | _ -> ())
      | Typedtree.Texp_apply (f, args) -> (
        match f.exp_desc with
        | Typedtree.Texp_ident (p, _, _) -> (
          let comps = normalize (path_components p) in
          match List.rev comps with
          | last :: m :: _ when String.equal m "Trace" ->
            if
              List.exists (String.equal last) [ "begin_root"; "begin_span"; "event"; "in_span" ]
            then
              List.iter
                (fun (lbl, a) ->
                  match (lbl, a) with
                  | Asttypes.Labelled "name", Some (arg : Typedtree.expression) -> (
                    match arg.exp_desc with
                    | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) ->
                      u.u_spans <- s :: u.u_spans
                    | _ -> ())
                  | _ -> ())
                args
          | last :: m :: _ when String.equal m "Injector" && String.equal last "attach" ->
            List.iter
              (fun (lbl, a) ->
                match (lbl, a) with
                | Asttypes.Labelled l, Some _ when starts_with "on_" l -> u.u_hooks <- l :: u.u_hooks
                | _ -> ())
              args
          (* metric registrations by literal name: gauges here, Stats
             sources by prefix below *)
          | "gauge" :: _ ->
            let rec first_literal = function
              | [] -> ()
              | (Asttypes.Nolabel, Some (arg : Typedtree.expression)) :: more -> (
                match arg.exp_desc with
                | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) ->
                  u.u_metric_regs <- (s, line_of arg.exp_loc) :: u.u_metric_regs
                | _ -> first_literal more)
              | _ :: more -> first_literal more
            in
            first_literal args
          | "stats_source" :: _ ->
            List.iter
              (fun (lbl, a) ->
                match (lbl, a) with
                | Asttypes.Labelled "prefix", Some (arg : Typedtree.expression) -> (
                  match arg.exp_desc with
                  | Typedtree.Texp_constant (Asttypes.Const_string (s, _, _)) ->
                    u.u_metric_regs <- (s, line_of arg.exp_loc) :: u.u_metric_regs
                  | _ -> ())
                | _ -> ())
              args
          | _ -> ())
        | _ -> ())
      | _ -> ());
      default_iterator.expr sub e
    in
    { default_iterator with expr }
  in
  let scan_expr fn e =
    let it = expr_iter fn in
    it.Tast_iterator.expr it e
  in
  let rec mod_structure (m : Typedtree.module_expr) =
    match m.mod_desc with
    | Typedtree.Tmod_structure s -> Some s
    | Typedtree.Tmod_constraint (m, _, _, _) -> mod_structure m
    | _ -> None
  in
  let rec walk prefix (items : Typedtree.structure_item list) =
    List.iter
      (fun (it : Typedtree.structure_item) ->
        match it.str_desc with
        | Typedtree.Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              let ids = Typedtree.pat_bound_idents vb.vb_pat in
              let line = line_of vb.vb_loc in
              let base =
                match ids with id :: _ -> Ident.name id | [] -> "(pattern)"
              in
              (match (prefix, ids, vb.vb_expr.exp_desc) with
              | "", [ id ], Typedtree.Texp_constant (Asttypes.Const_int n)
                when starts_with "cmd_" (Ident.name id) ->
                u.u_cmds <- (Ident.name id, n, line) :: u.u_cmds
              | _ -> ());
              (match ids with
              | [ id ] when Option.is_some (Lint.codec_role (Ident.name id)) ->
                u.u_codecs <- (Ident.name id, line) :: u.u_codecs
              | _ -> ());
              scan_expr (new_fn (prefix ^ base) line) vb.vb_expr)
            vbs
        | Typedtree.Tstr_module mb -> (
          match mod_structure mb.mb_expr with
          | Some s ->
            let mname = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
            walk (prefix ^ mname ^ ".") s.str_items
          | None -> ())
        | Typedtree.Tstr_recmodule mbs ->
          List.iter
            (fun (mb : Typedtree.module_binding) ->
              match mod_structure mb.mb_expr with
              | Some s ->
                let mname = match mb.mb_id with Some id -> Ident.name id | None -> "_" in
                walk (prefix ^ mname ^ ".") s.str_items
              | None -> ())
            mbs
        | Typedtree.Tstr_eval (e, _) -> scan_expr (new_fn (prefix ^ "(init)") (line_of it.str_loc)) e
        | _ -> ())
      items
  in
  walk "" str.str_items;
  u

(* ---- cmt loading ---- *)

let load_cmt path =
  match Cmt_format.read_cmt path with
  | exception exn -> Error (Printf.sprintf "%s: %s" path (Printexc.to_string exn))
  | cmt -> (
    match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
    | Cmt_format.Implementation str, Some file ->
      Ok (Some (scan_unit ~file ~modname:cmt.Cmt_format.cmt_modname str))
    | _ -> Ok None)

let load_units cmt_paths =
  let seen = Hashtbl.create 64 in
  let units = ref [] and errors = ref [] in
  List.iter
    (fun path ->
      match load_cmt path with
      | Error e -> errors := e :: !errors
      | Ok None -> ()
      | Ok (Some u) ->
        if not (Hashtbl.mem seen u.u_name) then begin
          Hashtbl.replace seen u.u_name ();
          units := u :: !units
        end)
    (List.sort String.compare cmt_paths);
  match !errors with
  | [] -> Ok (List.sort (fun a b -> String.compare a.u_name b.u_name) !units)
  | errs -> Error (String.concat "\n" (List.rev errs))

(* ---- the global call graph ---- *)

(* A reference [M1.M2.f] resolves to a scanned function by trying every
   split point: unit "M1.M2" + fn "f", then unit "M1" + fn "M2.f"; a
   bare [f] resolves within the referencing unit. Unresolved refs are
   externals (Stdlib, other packages) and contribute no edges. *)

module SMap = Map.Make (String)

type graph = {
  fns : (unit_info * fn_info) SMap.t; (* key: "Unit.name/fn.name" *)
  edges : string list SMap.t; (* key -> sorted callee keys *)
}

let fn_key u f = u.u_name ^ "/" ^ f.fn_name

let build_graph units =
  let fns =
    List.fold_left
      (fun acc u ->
        List.fold_left (fun acc f -> SMap.add (fn_key u f) (u, f) acc) acc u.u_fns)
      SMap.empty units
  in
  let resolve ~unit comps =
    let joined = String.concat "." comps in
    match comps with
    | [] -> None
    | [ f ] -> if SMap.mem (unit.u_name ^ "/" ^ f) fns then Some (unit.u_name ^ "/" ^ f) else None
    | _ ->
      if SMap.mem (unit.u_name ^ "/" ^ joined) fns then Some (unit.u_name ^ "/" ^ joined)
      else
        let n = List.length comps in
        let rec try_split k =
          if k = 0 then None
          else
            let rec take i = function
              | x :: rest when i > 0 -> x :: take (i - 1) rest
              | _ -> []
            in
            let rec drop i = function
              | _ :: rest when i > 0 -> drop (i - 1) rest
              | l -> l
            in
            let key =
              String.concat "." (take k comps) ^ "/" ^ String.concat "." (drop k comps)
            in
            if SMap.mem key fns then Some key else try_split (k - 1)
        in
        try_split (n - 1)
  in
  let edges =
    List.fold_left
      (fun acc u ->
        List.fold_left
          (fun acc f ->
            let callees =
              List.filter_map (resolve ~unit:u) f.fn_calls
              |> List.sort_uniq String.compare
              |> List.filter (fun k -> not (String.equal k (fn_key u f)))
            in
            SMap.add (fn_key u f) callees acc)
          acc u.u_fns)
      SMap.empty units
  in
  { fns; edges }

let callees g key = match SMap.find_opt key g.edges with Some l -> l | None -> []

let reachable g roots =
  let visited = Hashtbl.create 64 in
  let rec go key =
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.replace visited key ();
      List.iter go (callees g key)
    end
  in
  List.iter go roots;
  visited

(* ---- pass: protocol conformance ---- *)

let proto_pass units g =
  let diags = ref [] in
  let emit u line rule message = diags := { file = u.u_file; line; rule; message } :: !diags in
  (* duplicate wire values within one module *)
  List.iter
    (fun u ->
      if u.u_lib then
        let sorted =
          List.sort
            (fun (_, va, la) (_, vb, lb) ->
              let c = Int.compare va vb in
              if c <> 0 then c else Int.compare la lb)
            u.u_cmds
        in
        let rec scan = function
          | (na, va, _) :: ((nb, vb, lb) :: _ as rest) ->
            if va = vb then
              emit u lb "vet-proto-duplicate-cmd"
                (Printf.sprintf "%s = %d duplicates %s in this module" nb vb na);
            scan rest
          | _ -> []
        in
        ignore (scan sorted))
    units;
  (* the same literal metric name registered twice in one module would
     raise Duplicate_metric as soon as both sites run against one
     registry *)
  List.iter
    (fun u ->
      if u.u_lib then begin
        let sorted =
          List.sort
            (fun (na, la) (nb, lb) ->
              let c = String.compare na nb in
              if c <> 0 then c else Int.compare la lb)
            u.u_metric_regs
        in
        let rec scan = function
          | (na, la) :: (((nb, lb) :: _) as rest) ->
            if String.equal na nb then
              emit u lb "vet-proto-duplicate-metric"
                (Printf.sprintf
                   "metric %S is already registered at line %d in this module; a second \
                    registration raises Duplicate_metric"
                   na la);
            scan rest
          | _ -> ()
        in
        scan sorted
      end)
    units;
  (* every cmd must be referenced from some serve/dispatch arm *)
  let dispatch_roots =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun f ->
            let base =
              match String.rindex_opt f.fn_name '.' with
              | Some i -> String.sub f.fn_name (i + 1) (String.length f.fn_name - i - 1)
              | None -> f.fn_name
            in
            if String.equal base "serve" || String.equal base "dispatch" then Some (fn_key u f)
            else None)
          u.u_fns)
      units
  in
  let dispatch_reach = reachable g dispatch_roots in
  let handled =
    (* (defining unit, cmd name) pairs referenced from dispatch-reachable code *)
    List.fold_left
      (fun acc u ->
        List.fold_left
          (fun acc (fn, comps, _) ->
            if Hashtbl.mem dispatch_reach (u.u_name ^ "/" ^ fn) then
              match List.rev comps with
              | name :: [] -> SMap.add (u.u_name ^ "/" ^ name) () acc
              | name :: prefix_rev ->
                SMap.add (String.concat "." (List.rev prefix_rev) ^ "/" ^ name) () acc
              | [] -> acc
            else acc)
          acc u.u_cmd_refs)
      SMap.empty units
  in
  List.iter
    (fun u ->
      if u.u_lib then
        List.iter
          (fun (name, value, line) ->
            if not (SMap.mem (u.u_name ^ "/" ^ name) handled) then
              emit u line "vet-proto-unhandled-cmd"
                (Printf.sprintf
                   "%s (wire value %d) is never referenced from any serve/dispatch arm" name value))
          u.u_cmds)
    units;
  (* cross-file codec symmetry *)
  let roles =
    List.fold_left
      (fun acc u ->
        List.fold_left
          (fun acc (name, _) ->
            match Lint.codec_role name with
            | Some (`Encode, s) ->
              SMap.update s
                (fun p ->
                  let e, d = Option.value p ~default:(false, false) in
                  ignore e;
                  Some (true, d))
                acc
            | Some (`Decode, s) ->
              SMap.update s
                (fun p ->
                  let e, d = Option.value p ~default:(false, false) in
                  ignore d;
                  Some (e, true))
                acc
            | None -> acc)
          acc u.u_codecs)
      SMap.empty units
  in
  List.iter
    (fun u ->
      List.iter
        (fun (name, line) ->
          match Lint.codec_role name with
          | Some (role, s) ->
            let e, d = Option.value (SMap.find_opt s roles) ~default:(false, false) in
            let missing = match role with `Encode -> not d | `Decode -> not e in
            if missing then
              let expected =
                (match role with `Encode -> "decode" | `Decode -> "encode")
                ^ if String.equal s "" then "" else "_" ^ s
              in
              emit u line "vet-proto-orphan-codec"
                (Printf.sprintf "%s has no matching %s anywhere in the scanned units" name expected)
          | None -> ())
        u.u_codecs)
    units;
  !diags

(* ---- pass: clock discipline ---- *)

let clock_pass g =
  (* least fixpoint of (advances, reads, device) over the call graph *)
  let eff = Hashtbl.create 256 in
  SMap.iter
    (fun key (_, f) -> Hashtbl.replace eff key (f.fn_advances, f.fn_reads, f.fn_device))
    g.fns;
  let changed = ref true in
  while !changed do
    changed := false;
    SMap.iter
      (fun key _ ->
        let a, r, d = Hashtbl.find eff key in
        let a', r', d' =
          List.fold_left
            (fun (a, r, d) c ->
              let ca, cr, cd = Hashtbl.find eff c in
              (a || ca, r || cr, d || cd))
            (a, r, d) (callees g key)
        in
        if a' <> a || r' <> r || d' <> d then begin
          Hashtbl.replace eff key (a', r', d');
          changed := true
        end)
      g.fns
  done;
  let free key =
    let a, r, d = Hashtbl.find eff key in
    r && d && not a
  in
  SMap.fold
    (fun key (u, f) acc ->
      if u.u_lib && free key && not (List.exists free (callees g key)) then
        {
          file = u.u_file;
          line = f.fn_line;
          rule = "vet-clock-free-work";
          message =
            Printf.sprintf
              "%s reads the virtual clock and touches device/queue state but never charges \
               simulated time (no Clock.advance on any path)"
              f.fn_name;
        }
        :: acc
      else acc)
    g.fns []

(* ---- pass: persisted-bytes taint ---- *)

let sink_name name =
  let base =
    match String.rindex_opt name '.' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  String.equal base "checkpoint" || String.equal base "repersist"
  || String.equal base "replica_dumps" || String.equal base "dump_replica"
  || starts_with "persist" base

let taint_pass ~allows_for units g =
  let source_allowed u (_, line) =
    Lint.suppressed (allows_for u.u_file)
      { file = u.u_file; line; rule = "vet-taint-persist"; message = "" }
  in
  let live_sources key =
    let u, f = SMap.find key g.fns in
    List.filter (fun s -> not (source_allowed u s)) f.fn_sources
    |> List.sort (fun (a, la) (b, lb) ->
           let c = Int.compare la lb in
           if c <> 0 then c else String.compare a b)
  in
  let find_witness sink_key =
    (* BFS with sorted neighbours: the first tainted function found is
       deterministic, and the parent chain is the shortest call path *)
    let parent = Hashtbl.create 64 in
    let q = Queue.create () in
    Hashtbl.replace parent sink_key sink_key;
    Queue.add sink_key q;
    let rec go () =
      match Queue.take_opt q with
      | None -> None
      | Some key -> (
        match live_sources key with
        | (desc, line) :: _ ->
          let rec chain k acc =
            let p = Hashtbl.find parent k in
            if String.equal p k then k :: acc else chain p (k :: acc)
          in
          Some (key, desc, line, chain key [])
        | [] ->
          List.iter
            (fun c ->
              if not (Hashtbl.mem parent c) then begin
                Hashtbl.replace parent c key;
                Queue.add c q
              end)
            (callees g key);
          go ())
    in
    go ()
  in
  List.concat_map
    (fun u ->
      if not u.u_lib then []
      else
        List.filter_map
          (fun f ->
            if not (sink_name f.fn_name) then None
            else
              match find_witness (fn_key u f) with
              | None -> None
              | Some (src_key, desc, src_line, chain) ->
                let src_u, _ = SMap.find src_key g.fns in
                Some
                  {
                    file = u.u_file;
                    line = f.fn_line;
                    rule = "vet-taint-persist";
                    message =
                      Printf.sprintf "%s persists bytes that can reach %s at %s:%d (call chain: %s)"
                        f.fn_name desc src_u.u_file src_line (String.concat " -> " chain);
                  })
          u.u_fns)
    units

(* ---- inventory + report ---- *)

type inventory = {
  inv_cmds : (string * string * int) list; (* unit, name, wire value *)
  inv_codecs : (string * string) list; (* unit, name *)
  inv_spans : (string * string) list; (* unit, literal span/event name *)
  inv_hooks : (string * string) list; (* unit, fault hook label *)
  inv_metrics : (string * string) list; (* unit, literal metric/prefix name *)
}

type report = { diagnostics : diagnostic list; inventory : inventory }

let inventory units =
  let sort2 l = List.sort_uniq (fun (a, b) (c, d) ->
      let x = String.compare a c in
      if x <> 0 then x else String.compare b d) l
  in
  {
    inv_cmds =
      List.concat_map (fun u -> List.map (fun (n, v, _) -> (u.u_name, n, v)) u.u_cmds) units
      |> List.sort_uniq (fun (a, b, v) (c, d, w) ->
             let x = String.compare a c in
             if x <> 0 then x
             else
               let x = String.compare b d in
               if x <> 0 then x else Int.compare v w);
    inv_codecs =
      sort2 (List.concat_map (fun u -> List.map (fun (n, _) -> (u.u_name, n)) u.u_codecs) units);
    inv_spans = sort2 (List.concat_map (fun u -> List.map (fun s -> (u.u_name, s)) u.u_spans) units);
    inv_hooks = sort2 (List.concat_map (fun u -> List.map (fun h -> (u.u_name, h)) u.u_hooks) units);
    inv_metrics =
      sort2
        (List.concat_map
           (fun u -> List.map (fun (n, _) -> (u.u_name, n)) u.u_metric_regs)
           units);
  }

let analyze ~read_source ~passes cmt_paths =
  match load_units cmt_paths with
  | Error e -> Error e
  | Ok units ->
    let g = build_graph units in
    let allow_cache = Hashtbl.create 16 in
    let allows_for file =
      match Hashtbl.find_opt allow_cache file with
      | Some a -> a
      | None ->
        let a =
          match read_source file with Some src -> Lint.allows_of_source src | None -> []
        in
        Hashtbl.replace allow_cache file a;
        a
    in
    let diags =
      List.concat_map
        (fun p ->
          match p with
          | Proto -> proto_pass units g
          | Clock -> clock_pass g
          | Taint -> taint_pass ~allows_for units g)
        passes
    in
    let diags = List.filter (fun d -> not (Lint.suppressed (allows_for d.file) d)) diags in
    Ok { diagnostics = diags; inventory = inventory units }

(* ---- stable JSON ---- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ~passes ~diagnostics inv =
  let b = Buffer.create 4096 in
  let add = Buffer.add_string b in
  add "{\n  \"tool\": \"amoeba-vet\",\n  \"version\": 1,\n  \"passes\": [";
  add (String.concat ", " (List.map (fun p -> "\"" ^ json_escape p ^ "\"") passes));
  add "],\n  \"diagnostics\": [";
  List.iteri
    (fun i (d : diagnostic) ->
      if i > 0 then add ",";
      add
        (Printf.sprintf "\n    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"message\": \"%s\"}"
           (json_escape d.file) d.line (json_escape d.rule) (json_escape d.message)))
    diagnostics;
  if diagnostics <> [] then add "\n  ";
  add "],\n  \"inventory\": {\n    \"cmds\": [";
  List.iteri
    (fun i (u, n, v) ->
      if i > 0 then add ",";
      add
        (Printf.sprintf "\n      {\"unit\": \"%s\", \"name\": \"%s\", \"value\": %d}" (json_escape u)
           (json_escape n) v))
    inv.inv_cmds;
  if inv.inv_cmds <> [] then add "\n    ";
  let pair_list field l close =
    add ("],\n    \"" ^ field ^ "\": [");
    List.iteri
      (fun i (u, n) ->
        if i > 0 then add ",";
        add
          (Printf.sprintf "\n      {\"unit\": \"%s\", \"name\": \"%s\"}" (json_escape u)
             (json_escape n)))
      l;
    if l <> [] then add "\n    ";
    if close then add "]\n  }\n}\n"
  in
  pair_list "codecs" inv.inv_codecs false;
  pair_list "spans" inv.inv_spans false;
  pair_list "hooks" inv.inv_hooks false;
  pair_list "metrics" inv.inv_metrics true;
  Buffer.contents b

let order_diagnostics diags =
  List.sort
    (fun (a : diagnostic) (b : diagnostic) ->
      let c = String.compare a.file b.file in
      if c <> 0 then c
      else
        let c = Int.compare a.line b.line in
        if c <> 0 then c
        else
          let c = String.compare a.rule b.rule in
          if c <> 0 then c else String.compare a.message b.message)
    diags

(* Server child processes and their data directories. Every directory lives
   under [.bench_e2e/] in the working directory; every child is killed and
   reaped, and every directory removed, on each exit path: normal end, a
   failed check, an exception, or SIGINT/SIGTERM to the benchmark. *)

let scratch_root = ".bench_e2e"

let live_pids = ref []

let live_dirs = ref []

let rec remove_tree path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path

let dirs_made = ref 0

let fresh_dir () =
  if not (Sys.file_exists scratch_root) then Unix.mkdir scratch_root 0o755;
  incr dirs_made;
  let dir = Filename.concat scratch_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !dirs_made) in
  remove_tree dir;
  Unix.mkdir dir 0o755;
  live_dirs := dir :: !live_dirs;
  dir

let drop_scratch_root () = try Sys.rmdir scratch_root with Sys_error _ -> ()

let release_dir dir =
  remove_tree dir;
  live_dirs := List.filter (fun d -> d <> dir) !live_dirs;
  drop_scratch_root ()

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

type t = { pid : int; port : int; out : Unix.file_descr; mutable running : bool }

(* Stop a child and wait for it to end. SIGKILL discards whatever the
   daemon has not saved; SIGTERM lets it save first. *)
let stop ?(signal = Sys.sigkill) d =
  if d.running then begin
    d.running <- false;
    (try Unix.kill d.pid signal with Unix.Unix_error _ -> ());
    reap d.pid;
    live_pids := List.filter (fun p -> p <> d.pid) !live_pids;
    Unix.close d.out
  end

let cleanup () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !live_pids;
  List.iter reap !live_pids;
  live_pids := [];
  List.iter remove_tree !live_dirs;
  live_dirs := [];
  drop_scratch_root ()

let () =
  at_exit cleanup;
  (* a write to a daemon that died must fail, not kill the benchmark *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let quit _ = exit 2 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle quit)

let port_of_line line =
  try Scanf.sscanf line "listening on %[^:]:%d" (fun _host port -> Some port)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* Read the child's stdout until its "listening on HOST:PORT" line. The
   pipe stays open afterwards so later prints cannot raise SIGPIPE in the
   child. *)
let await_port fd ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let chunk = Bytes.create 512 in
  let rec loop pending =
    let lines = String.split_on_char '\n' pending in
    match List.find_map port_of_line lines with
    | Some port -> Some port
    | None -> (
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then None
      else
        match Unix.select [ fd ] [] [] left with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop pending
        | [], _, _ -> None
        | _ ->
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n = 0 then None else loop (pending ^ Bytes.sub_string chunk 0 n))
  in
  loop ""

let spawn exe args =
  let out, child_out = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin child_out Unix.stderr in
  Unix.close child_out;
  live_pids := pid :: !live_pids;
  match await_port out ~timeout:120. with
  | Some port -> { pid; port; out; running = true }
  | None ->
    stop { pid; port = 0; out; running = true };
    failwith (Printf.sprintf "%s did not report a listening port" exe)

(* Peak resident set of a live child, from /proc/PID/status (VmHWM). *)
let peak_rss_mb d =
  let ic = open_in (Printf.sprintf "/proc/%d/status" d.pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> failwith "no VmHWM in /proc status"
        | line -> (
          match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
          | kb -> float_of_int kb /. 1024.
          | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> find ())
      in
      find ())

open Common

type comparison = {
  size : int;
  read_ratio : float;
  bullet_write_kbs : float;
  nfs_write_kbs : float;
  nfs_read_kbs : float;
  write_ratio : float;
}

let compare_servers ?(sizes = paper_sizes) () =
  let bullet = Fig2.fig2_bullet ~sizes () in
  let nfs = Fig3.fig3_nfs ~sizes () in
  let combine (b : row) (n : row) =
    let bullet_write_kbs = bandwidth_kbs ~size:b.size ~us:b.write_us in
    let nfs_write_kbs = bandwidth_kbs ~size:n.size ~us:n.write_us in
    {
      size = b.size;
      read_ratio = float_of_int n.read_us /. float_of_int b.read_us;
      bullet_write_kbs;
      nfs_write_kbs;
      nfs_read_kbs = bandwidth_kbs ~size:n.size ~us:n.read_us;
      write_ratio = (if nfs_write_kbs = 0. then 0. else bullet_write_kbs /. nfs_write_kbs);
    }
  in
  List.map2 combine bullet nfs

let verdict ok = if ok then "holds" else "FAILS"

let run () =
  header "CMP - Bullet vs NFS: the paper's Section 4 claims";
  let rows = compare_servers () in
  Printf.printf "  %-10s %14s %18s %16s %14s\n" "File Size" "read ratio" "bullet write KB/s"
    "nfs write KB/s" "nfs read KB/s";
  List.iter
    (fun c ->
      Printf.printf "  %-10s %14.2f %18.1f %16.1f %14.1f\n" (size_label c.size) c.read_ratio
        c.bullet_write_kbs c.nfs_write_kbs c.nfs_read_kbs)
    rows;
  print_newline ();
  let at size = List.find (fun c -> c.size = size) rows in
  let c1 = List.for_all (fun c -> c.read_ratio >= 3.0 && c.read_ratio <= 6.5) rows in
  Printf.printf "  C1 reads 3-6x faster at every size:            %s\n" (verdict c1);
  let big = at 1_048_576 in
  Printf.printf "  C2 ~10x write bandwidth at 1 MB (measured %.1fx): %s\n" big.write_ratio
    (verdict (big.write_ratio >= 7.0));
  let c3 =
    List.for_all
      (fun c -> c.size < 65_536 || c.bullet_write_kbs > c.nfs_read_kbs)
      rows
  in
  Printf.printf "  C3 bullet writes beat NFS reads above 64 KB:   %s\n" (verdict c3);
  let k64 = at 65_536 in
  let c4 =
    big.nfs_write_kbs < k64.nfs_write_kbs && big.nfs_read_kbs < k64.nfs_read_kbs
  in
  Printf.printf "  C4 NFS bandwidth dips at 1 MB:                 %s\n" (verdict c4);
  []

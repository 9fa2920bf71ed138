let magic = "BIMG0001"

module Codec = Amoeba_sim.Codec

let header_bytes = String.length magic + (6 * 4)

let encode_header (g : Geometry.t) =
  let buf = Bytes.create header_bytes in
  Bytes.blit_string magic 0 buf 0 (String.length magic);
  let base = String.length magic in
  Codec.set_u32 buf base g.Geometry.sector_bytes;
  Codec.set_u32 buf (base + 4) g.Geometry.sector_count;
  Codec.set_u32 buf (base + 8) g.Geometry.avg_seek_us;
  Codec.set_u32 buf (base + 12) g.Geometry.rotation_us;
  Codec.set_u32 buf (base + 16) g.Geometry.media_rate;
  Codec.set_u32 buf (base + 20) g.Geometry.controller_us;
  buf

let decode_header buf =
  if Bytes.length buf < header_bytes then Error "image truncated"
  else if Bytes.sub_string buf 0 (String.length magic) <> magic then Error "not a drive image"
  else begin
    let base = String.length magic in
    Ok
      {
        Geometry.sector_bytes = Codec.get_u32 buf base;
        sector_count = Codec.get_u32 buf (base + 4);
        avg_seek_us = Codec.get_u32 buf (base + 8);
        rotation_us = Codec.get_u32 buf (base + 12);
        media_rate = Codec.get_u32 buf (base + 16);
        controller_us = Codec.get_u32 buf (base + 20);
      }
  end

let save device path =
  let geometry = Block_device.geometry device in
  let contents =
    Block_device.peek device ~sector:0 ~count:geometry.Geometry.sector_count
  in
  let temporary = path ^ ".tmp" in
  let oc = open_out_bin temporary in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_bytes oc (encode_header geometry);
      output_bytes oc contents);
  Sys.rename temporary path

let load ~id ~clock path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let header = Bytes.create header_bytes in
        match really_input ic header 0 header_bytes with
        | exception End_of_file -> Error "image truncated"
        | () -> (
          match decode_header header with
          | Error e -> Error e
          | Ok geometry -> (
            let size = Geometry.capacity_bytes geometry in
            let contents = Bytes.create size in
            match really_input ic contents 0 size with
            | exception End_of_file -> Error "image contents truncated"
            | () ->
              let device = Block_device.create ~id ~geometry ~clock in
              Block_device.poke device ~sector:0 contents;
              Ok device)))

let load_or_create ~id ~clock ~geometry path =
  if Sys.file_exists path then
    match load ~id ~clock path with
    | Ok device -> Ok (device, `Loaded)
    | Error e -> Error e
  else Ok (Block_device.create ~id ~geometry ~clock, `Created)

(* Hardened, atomically-written container for Marshal-persisted artifacts.
   See binfile.mli for the contract. On-disk layout: one text header line

     DDSMBIN1 <kind> <format-version> <payload-bytes> <md5-hex>\n

   followed by the raw Marshal payload. Nothing reaches the unmarshaller
   until magic, kind, version, length and digest have all checked out, so
   truncated, stale or foreign files are plain [Error]s. *)

let magic = "DDSMBIN1"
(* v1: the headerless bare-Marshal era; v2: units held an analysed and a
   lowered routine, and shadows carried clone requests. Marshal is not
   type-checked, so every change to a persisted type bumps this. *)
let format_version = 3

let save ~kind ~path v =
  if String.exists (fun c -> c = ' ' || c = '\n') kind then
    invalid_arg "Binfile.save: kind must not contain spaces";
  let payload = Marshal.to_string v [] in
  let header =
    Printf.sprintf "%s %s %d %d %s\n" magic kind format_version
      (String.length payload)
      (Digest.to_hex (Digest.string payload))
  in
  (* temp file in the target's own directory so the final rename never
     crosses a filesystem and is atomic *)
  let tmp, oc =
    Filename.open_temp_file ~mode:[ Open_binary ]
      ~temp_dir:(Filename.dirname path)
      ".ddsm-" ".tmp"
  in
  (try
     output_string oc header;
     output_string oc payload;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load ~kind ~path =
  let err fmt = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) fmt in
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let header = try Some (input_line ic) with End_of_file -> None in
          match Option.map (String.split_on_char ' ') header with
          | None -> err "not a DDSM %s file (empty file)" kind
          | Some [ m; k; ver; len; dig ] when m = magic -> (
              if k <> kind then
                err "is a DDSM %s file, expected a %s file" k kind
              else
                match (int_of_string_opt ver, int_of_string_opt len) with
                | Some v, _ when v <> format_version ->
                    err
                      "stale format version %d (this build reads version \
                       %d) — rebuild the file"
                      v format_version
                | _, None | None, _ -> err "corrupt header"
                | Some _, Some len -> (
                    let payload =
                      try Some (really_input_string ic len)
                      with End_of_file -> None
                    in
                    match payload with
                    | None -> err "truncated (torn write or short copy)"
                    | Some payload ->
                        if pos_in ic <> in_channel_length ic then
                          err "trailing garbage after payload"
                        else if Digest.to_hex (Digest.string payload) <> dig
                        then err "corrupt (payload digest mismatch)"
                        else (
                          (* digest verified: these are the exact bytes the
                             writer marshalled, so unmarshalling is safe *)
                          match Marshal.from_string payload 0 with
                          | v -> Ok v
                          | exception Failure m ->
                              err "corrupt payload: %s" m)))
          | Some _ ->
              err "not a DDSM %s file (bad or missing magic)" kind)

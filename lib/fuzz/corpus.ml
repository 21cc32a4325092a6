type case = { path : string; seed : int; expect : string; source : string }

let sanitize_name s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '-')
    s

let write_case ~dir ~seed ~bucket ~expect ~source =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path =
    Filename.concat dir
      (Printf.sprintf "case-%d-%s.pf" seed (sanitize_name bucket))
  in
  let oc = open_out path in
  Printf.fprintf oc "c pflfuzz corpus: seed=%d bucket=%s\n" seed bucket;
  Printf.fprintf oc "c expect: %s\n" expect;
  output_string oc source;
  close_out oc;
  path

let header_re line prefix =
  if String.length line >= String.length prefix
     && String.sub line 0 (String.length prefix) = prefix
  then Some (String.trim (String.sub line (String.length prefix)
                            (String.length line - String.length prefix)))
  else None

(* a file without a [seed=] header is seeded by its name, so that every
   such file picks its own flags leg, the same one on every load *)
let parse_case ~path source =
  let seed = ref (Hashtbl.hash (Filename.basename path))
  and expect = ref "ok" in
  List.iter
    (fun line ->
      (match header_re line "c pflfuzz corpus:" with
      | Some rest ->
          List.iter
            (fun tok ->
              match String.split_on_char '=' tok with
              | [ "seed"; n ] -> (try seed := int_of_string n with _ -> ())
              | _ -> ())
            (String.split_on_char ' ' rest)
      | None -> ());
      match header_re line "c expect:" with
      | Some e when e <> "" -> expect := e
      | _ -> ())
    (String.split_on_char '\n' source);
  { path; seed = !seed; expect = !expect; source }

let load ~dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pf")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           let ic = open_in_bin path in
           let n = in_channel_length ic in
           let source = really_input_string ic n in
           close_in ic;
           parse_case ~path source)

let replay opts (c : case) =
  let verdict = Differ.run opts [ (Filename.basename c.path, c.source) ] in
  let kind = Differ.kind_of verdict in
  let matches =
    String.length kind >= String.length c.expect
    && String.sub kind 0 (String.length c.expect) = c.expect
  in
  if matches then Ok ()
  else
    Error
      (Printf.sprintf "%s: expected verdict '%s', got '%s'%s"
         (Filename.basename c.path) c.expect kind
         (match verdict with
         | Differ.Diverged { detail; _ } -> " (" ^ detail ^ ")"
         | Differ.Reject m | Differ.Fail m -> " (" ^ m ^ ")"
         | _ -> ""))

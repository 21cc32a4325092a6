module K = Ddsm_dist.Kind

type arg = { kinds : K.t list; onto : int list option }
type t = arg option list

let is_trivial t = List.for_all Option.is_none t

let arg_to_string a =
  let ks =
    String.concat "," (List.map K.to_string a.kinds)
  in
  match a.onto with
  | None -> Printf.sprintf "r(%s)" ks
  | Some ws ->
      Printf.sprintf "r(%s)onto(%s)" ks
        (String.concat "," (List.map string_of_int ws))

let to_string t =
  String.concat ";"
    (List.map (function None -> "-" | Some a -> arg_to_string a) t)

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c
      | '*' -> 's'
      | _ -> '.')
    s

let mangle name t =
  if is_trivial t then name else Printf.sprintf "%s$%s" name (sanitize (to_string t))

let equal (a : t) (b : t) = a = b

type common_member = {
  cm_name : string;
  cm_offset : int;
  cm_shape : int list;
  cm_dist : Sig_.arg option;
}

type t = {
  defs : (string * Sig_.t) list;
  calls : (string * Sig_.t) list;
  commons : (string * string * common_member list) list;
}

let member_to_string m =
  Printf.sprintf "%s@%d:%s:%s" m.cm_name m.cm_offset
    (String.concat "x" (List.map string_of_int m.cm_shape))
    (match m.cm_dist with
    | None -> "-"
    | Some a -> Sig_.to_string [ Some a ])

let to_string t =
  let b = Buffer.create 256 in
  List.iter
    (fun (n, s) -> Buffer.add_string b (Printf.sprintf "def %s %s\n" n (Sig_.to_string s)))
    t.defs;
  List.iter
    (fun (n, s) -> Buffer.add_string b (Printf.sprintf "call %s %s\n" n (Sig_.to_string s)))
    t.calls;
  List.iter
    (fun (blk, routine, members) ->
      Buffer.add_string b
        (Printf.sprintf "common %s %s %s\n" blk routine
           (String.concat " " (List.map member_to_string members))))
    t.commons;
  Buffer.contents b

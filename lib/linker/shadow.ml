type common_member = {
  cm_name : string;
  cm_offset : int;
  cm_shape : int list;
  cm_dist : Sig_.arg option;
}

type t = {
  mutable defs : (string * Sig_.t) list;
  mutable calls : (string * Sig_.t) list;
  mutable requests : (string * Sig_.t) list;
  mutable commons : (string * string * common_member list) list;
}

let empty () = { defs = []; calls = []; requests = []; commons = [] }

let add_once list entry = if List.mem entry !list then () else list := !list @ [ entry ]

let add_def t n s =
  let l = ref t.defs in
  add_once l (n, s);
  t.defs <- !l

let add_call t n s =
  let l = ref t.calls in
  add_once l (n, s);
  t.calls <- !l

let add_request t n s =
  let l = ref t.requests in
  add_once l (n, s);
  t.requests <- !l

let remove_request t n s =
  t.requests <- List.filter (fun e -> e <> (n, s)) t.requests

let add_common t ~block ~routine members =
  t.commons <- t.commons @ [ (block, routine, members) ]

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
    (fun (n, s) ->
      Buffer.add_string b (Printf.sprintf "request %s %s\n" n (Sig_.to_string s)))
    t.requests;
  List.iter
    (fun (blk, routine, members) ->
      Buffer.add_string b
        (Printf.sprintf "common %s %s %s\n" blk routine
           (String.concat " " (List.map member_to_string members))))
    t.commons;
  Buffer.contents b

type t = { routines : (string, Ddsm_sema.Sema.env) Hashtbl.t; main : string }

let create list ~main =
  let routines = Hashtbl.create 16 in
  List.iter (fun (n, r) -> Hashtbl.replace routines n r) list;
  if not (Hashtbl.mem routines main) then
    invalid_arg (Printf.sprintf "Prog.create: main routine %s missing" main);
  { routines; main }

let find t n = Hashtbl.find_opt t.routines n
let iter t f = Hashtbl.iter f t.routines

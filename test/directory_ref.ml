(* Reference directory: the original Hashtbl-of-boxed-entries
   implementation, kept verbatim as the differential oracle for the flat
   open-addressing {!Directory}. Test-only. *)

(* a sharer set is a sorted list of distinct processors *)
type state = Uncached | Shared of int list | Exclusive of int

type entry = { mutable st : state }

type t = { nprocs : int; table : (int, entry) Hashtbl.t }

let create ~nprocs = { nprocs; table = Hashtbl.create 65536 }

let state t ~line =
  match Hashtbl.find_opt t.table line with
  | None -> Uncached
  | Some e -> e.st

let entry t line =
  match Hashtbl.find_opt t.table line with
  | Some e -> e
  | None ->
      let e = { st = Uncached } in
      Hashtbl.replace t.table line e;
      e

let set_exclusive t ~line ~owner = (entry t line).st <- Exclusive owner

let add_sharer t ~line ~proc =
  let e = entry t line in
  match e.st with
  | Uncached -> e.st <- Shared [ proc ]
  | Shared s -> e.st <- Shared (List.sort_uniq compare (proc :: s))
  | Exclusive q -> e.st <- Shared (List.sort_uniq compare [ q; proc ])

let drop t ~line ~proc =
  match Hashtbl.find_opt t.table line with
  | None -> ()
  | Some e -> (
      match e.st with
      | Uncached -> ()
      | Exclusive q -> if q = proc then e.st <- Uncached
      | Shared s -> (
          match List.filter (fun p -> p <> proc) s with
          | [] -> e.st <- Uncached
          | s -> e.st <- Shared s))

let sharers_except t ~line ~proc =
  match state t ~line with
  | Uncached -> []
  | Exclusive q -> if q = proc then [] else [ q ]
  | Shared s ->
      List.fold_left (fun acc p -> if p = proc then acc else p :: acc) [] s

let entries t = Hashtbl.length t.table
let nprocs t = t.nprocs

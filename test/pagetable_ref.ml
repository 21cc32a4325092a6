(* Reference page table: the original Hashtbl-based implementation, kept
   verbatim as the differential oracle for the flat-array {!Pagetable}. Not
   used on any simulation path — the qcheck oracle in
   test_machine_fastpath.ml drives random operation sequences through both
   implementations and requires identical observable results, which is what
   lets the flat implementation claim exactness. *)

open Ddsm_machine

type entry = { mutable node : int; mutable frame : int }

type t = {
  cfg : Config.t;
  policy : Pagetable.policy;
  table : (int, entry) Hashtbl.t;
  used : int array;
  color_next : int array array;
  colors : int;
  capacity : int;
  mutable rr_next : int;
  mutable overflow : int;
  nnodes : int;
}

let create cfg policy =
  let nnodes = Config.nnodes cfg in
  let colors =
    max 1
      (cfg.Config.l2.Config.size_bytes / cfg.Config.l2.Config.assoc
      / cfg.Config.page_bytes)
  in
  {
    cfg;
    policy;
    table = Hashtbl.create 4096;
    used = Array.make nnodes 0;
    color_next = Array.init nnodes (fun _ -> Array.make colors 0);
    colors;
    capacity = max 1 (Config.pages_per_node cfg);
    rr_next = 0;
    overflow = 0;
    nnodes;
  }

let frame_stride t = (t.capacity + 4) * t.colors
let node_of_frame t f = min (t.nnodes - 1) (f / frame_stride t)

let alloc_frame t node ~page =
  let color = page mod t.colors in
  let take n =
    let round = t.color_next.(n).(color) in
    t.color_next.(n).(color) <- round + 1;
    t.used.(n) <- t.used.(n) + 1;
    (n, (n * frame_stride t) + color + (round * t.colors))
  in
  let rec go n tries =
    if tries >= t.nnodes then begin
      let f = t.overflow in
      t.overflow <- f + 1;
      (node, (t.nnodes * frame_stride t) + color + (f * t.colors))
    end
    else if t.used.(n) < t.capacity then take n
    else go ((n + 1) mod t.nnodes) (tries + 1)
  in
  go node 0

let place_new t ~page ~node =
  let actual, frame = alloc_frame t node ~page in
  Hashtbl.replace t.table page { node = actual; frame }

let place t ~page ~node =
  if not (Hashtbl.mem t.table page) then place_new t ~page ~node

let home t ~page ~faulting_node =
  match Hashtbl.find_opt t.table page with
  | Some e -> e.node
  | None ->
      let node =
        match t.policy with
        | Pagetable.First_touch -> faulting_node
        | Pagetable.Round_robin ->
            let n = t.rr_next in
            t.rr_next <- (t.rr_next + 1) mod t.nnodes;
            n
      in
      place_new t ~page ~node;
      (Hashtbl.find t.table page).node

let home_opt t ~page =
  Option.map (fun e -> e.node) (Hashtbl.find_opt t.table page)

let migrate t ~page ~node =
  let actual, frame = alloc_frame t node ~page in
  match Hashtbl.find_opt t.table page with
  | Some e ->
      e.node <- actual;
      e.frame <- frame
  | None -> Hashtbl.replace t.table page { node = actual; frame }

let frame t ~page =
  match Hashtbl.find_opt t.table page with
  | Some e -> e.frame
  | None -> invalid_arg "Pagetable_ref.frame: page not placed"

let pages_on_node t ~node =
  Hashtbl.fold (fun _ e acc -> if e.node = node then acc + 1 else acc) t.table 0

let placed_pages t = Hashtbl.length t.table

let word_bytes = 8

type 'a t = {
  mutable ranges : (int * int * 'a) list;  (* lo, hi (bytes, incl.), owner *)
  mutable index : (int * int * 'a) array;  (* [ranges] sorted by lo *)
  mutable dirty : bool;
}

let create () = { ranges = []; index = [||]; dirty = false }

let add t ~word_ranges owner =
  List.iter
    (fun (lo, hi) ->
      if hi >= lo then
        t.ranges <-
          (lo * word_bytes, (hi * word_bytes) + (word_bytes - 1), owner)
          :: t.ranges)
    word_ranges;
  t.dirty <- true

(* index of the greatest lo <= addr in a.(lo..hi), else [best]; top level so
   a lookup allocates no closure *)
let rec greatest_at_or_below (a : (int * int * _) array) (addr : int) lo hi
    best =
  if lo > hi then best
  else
    let mid = (lo + hi) / 2 in
    let l, _, _ = a.(mid) in
    if l <= addr then greatest_at_or_below a addr (mid + 1) hi mid
    else greatest_at_or_below a addr lo (mid - 1) best

let find t addr ~default =
  if t.dirty then begin
    let a = Array.of_list t.ranges in
    Array.sort (fun (l1, _, _) (l2, _, _) -> compare l1 l2) a;
    t.index <- a;
    t.dirty <- false
  end;
  let a = t.index in
  let i = greatest_at_or_below a addr 0 (Array.length a - 1) (-1) in
  if i < 0 then default
  else
    let _, hi, owner = a.(i) in
    if addr <= hi then owner else default

module Names = struct
  type t = {
    ids : (string, int) Hashtbl.t;
    mutable names : string array;
    mutable last : string;  (* the previous call's string, by identity *)
    mutable last_id : int;  (* its id; -1 before the first call *)
  }

  let create () =
    { ids = Hashtbl.create 32; names = [||]; last = ""; last_id = -1 }

  let lookup t s =
    match Hashtbl.find_opt t.ids s with
    | Some id -> id
    | None ->
        let id = Hashtbl.length t.ids in
        if id >= Array.length t.names then begin
          let bigger = Array.make (max 8 (2 * id)) "" in
          Array.blit t.names 0 bigger 0 id;
          t.names <- bigger
        end;
        t.names.(id) <- s;
        Hashtbl.replace t.ids s id;
        id

  let id t s =
    if s == t.last && t.last_id >= 0 then t.last_id
    else begin
      let id = lookup t s in
      t.last <- s;
      t.last_id <- id;
      id
    end

  let name t id = t.names.(id)
end

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

let find t addr ~default =
  if t.dirty then begin
    let a = Array.of_list t.ranges in
    Array.sort (fun (l1, _, _) (l2, _, _) -> compare l1 l2) a;
    t.index <- a;
    t.dirty <- false
  end;
  let a = t.index in
  (* greatest lo <= addr, then check hi *)
  let rec bsearch lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      let l, _, _ = a.(mid) in
      if l <= addr then bsearch (mid + 1) hi mid else bsearch lo (mid - 1) best
  in
  let i = bsearch 0 (Array.length a - 1) (-1) in
  if i < 0 then default
  else
    let _, hi, owner = a.(i) in
    if addr <= hi then owner else default

type t = { extent : int; procs : int; kind : Kind.t; block : int }

let make ~extent ~procs kind =
  if extent < 1 then invalid_arg "Dim_map.make: extent < 1";
  if procs < 1 then invalid_arg "Dim_map.make: procs < 1";
  let kind = Kind.normalise kind in
  (match kind with
  | Kind.Star when procs > 1 ->
      invalid_arg "Dim_map.make: a '*' dimension cannot span processors"
  | _ -> ());
  let block =
    match kind with
    | Kind.Block -> Intmath.cdiv extent procs
    | Kind.Cyclic -> 1
    | Kind.Cyclic_k k -> k
    | Kind.Star -> extent
  in
  { extent; procs; kind; block }

let check_index t i =
  if i < 0 || i >= t.extent then
    invalid_arg
      (Printf.sprintf "Dim_map: index %d out of bounds [0,%d)" i t.extent)

let owner t i =
  check_index t i;
  match t.kind with
  | Kind.Star -> 0
  | Kind.Block -> i / t.block
  | Kind.Cyclic -> i mod t.procs
  | Kind.Cyclic_k k -> i / k mod t.procs

let offset t i =
  check_index t i;
  match t.kind with
  | Kind.Star -> i
  | Kind.Block -> i mod t.block
  | Kind.Cyclic -> i / t.procs
  | Kind.Cyclic_k k -> (i / (k * t.procs) * k) + (i mod k)

let global t ~proc ~offset =
  match t.kind with
  | Kind.Star -> offset
  | Kind.Block -> (proc * t.block) + offset
  | Kind.Cyclic -> (offset * t.procs) + proc
  | Kind.Cyclic_k k ->
      let chunk_in_proc = offset / k and within = offset mod k in
      (((chunk_in_proc * t.procs) + proc) * k) + within

let portion_size t ~proc =
  match t.kind with
  | Kind.Star -> t.extent
  | Kind.Block -> max 0 (min t.extent ((proc + 1) * t.block) - (proc * t.block))
  | Kind.Cyclic ->
      if proc >= t.extent then 0 else Intmath.cdiv (t.extent - proc) t.procs
  | Kind.Cyclic_k k ->
      let nchunks = Intmath.cdiv t.extent k in
      let owned =
        if proc >= nchunks then 0 else Intmath.cdiv (nchunks - proc) t.procs
      in
      if owned = 0 then 0
      else
        let last_chunk = proc + ((owned - 1) * t.procs) in
        let last_size = min k (t.extent - (last_chunk * k)) in
        ((owned - 1) * k) + last_size

let storage_extent t =
  match t.kind with
  | Kind.Star -> t.extent
  | Kind.Block -> t.block
  | Kind.Cyclic -> Intmath.cdiv t.extent t.procs
  | Kind.Cyclic_k k -> Intmath.cdiv (Intmath.cdiv t.extent k) t.procs * k

let merge_abutting ranges =
  List.fold_left
    (fun acc (lo, hi) ->
      match acc with
      | (plo, phi) :: rest when phi + 1 = lo -> (plo, hi) :: rest
      | _ -> (lo, hi) :: acc)
    [] ranges
  |> List.rev

let portion_ranges t ~proc =
  merge_abutting
  @@
  match t.kind with
  | Kind.Star -> [ (0, t.extent - 1) ]
  | Kind.Block ->
      let lo = proc * t.block and hi = min t.extent ((proc + 1) * t.block) - 1 in
      if lo > hi then [] else [ (lo, hi) ]
  | Kind.Cyclic ->
      let rec go i acc = if i >= t.extent then List.rev acc else go (i + t.procs) ((i, i) :: acc) in
      if proc >= t.extent then [] else go proc []
  | Kind.Cyclic_k k ->
      let nchunks = Intmath.cdiv t.extent k in
      let rec go c acc =
        if c >= nchunks then List.rev acc
        else
          let lo = c * k and hi = min t.extent ((c + 1) * k) - 1 in
          go (c + t.procs) ((lo, hi) :: acc)
      in
      go proc []

let pp ppf t =
  Format.fprintf ppf "@[<h>%a over %d procs, extent %d, block %d@]" Kind.pp
    t.kind t.procs t.extent t.block

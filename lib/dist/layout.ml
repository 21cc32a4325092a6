type t = {
  extents : int array;
  kinds : Kind.t array;
  grid : Grid.t;
  dims : Dim_map.t array;
}

let make ~extents ~kinds ~nprocs ?onto () =
  let nd = Array.length extents in
  if nd = 0 then invalid_arg "Layout.make: zero-dimensional array";
  if Array.length kinds <> nd then invalid_arg "Layout.make: kinds arity mismatch";
  let kinds = Array.map Kind.normalise kinds in
  let grid = Grid.assign ~nprocs ~kinds ~onto in
  let dims =
    Array.init nd (fun d ->
        Dim_map.make ~extent:extents.(d) ~procs:grid.Grid.per_dim.(d) kinds.(d))
  in
  { extents; kinds; grid; dims }

let ndims t = Array.length t.extents
let nprocs t = t.grid.Grid.total

let check_tuple t idx =
  if Array.length idx <> ndims t then invalid_arg "Layout: index arity mismatch"

let owner_tuple t idx =
  check_tuple t idx;
  Array.mapi (fun d i -> Dim_map.owner t.dims.(d) i) idx

let owner t idx = Grid.linear t.grid (owner_tuple t idx)

let offsets t idx =
  check_tuple t idx;
  Array.mapi (fun d i -> Dim_map.offset t.dims.(d) i) idx

let storage_extents t = Array.map Dim_map.storage_extent t.dims

let iter_box ranges f =
  let buf = Array.make (Array.length ranges) 0 in
  (* First dimension fastest: recurse from the last dimension down. *)
  let rec outer_rev d =
    if d < 0 then f buf
    else
      List.iter
        (fun (lo, hi) ->
          for i = lo to hi do
            buf.(d) <- i;
            outer_rev (d - 1)
          done)
        ranges.(d)
  in
  outer_rev (Array.length ranges - 1)

let portion_ranges t ~proc =
  let ow = Grid.delinear t.grid proc in
  Array.mapi (fun d dm -> Dim_map.portion_ranges dm ~proc:ow.(d)) t.dims

let iter_portion t ~proc f = iter_box (portion_ranges t ~proc) f

let linear_element t idx =
  check_tuple t idx;
  Array.iteri
    (fun d i ->
      if i < 0 || i >= t.extents.(d) then invalid_arg "Layout.linear_element: out of bounds")
    idx;
  Intmath.linear ~radices:t.extents idx

let contiguous_ranges t ~proc ~elem_bytes =
  (* The portion of a column-major array is contiguous in runs along dim 0
     (as long as dim 0 owns a contiguous range); enumerate runs by walking
     the outer dimensions (dim 0 pinned) and taking dim-0 ranges. The walk
     drives the last dimension slowest, so runs come out in increasing
     linear order, and adjacent runs are merged when they abut in linear
     address space (e.g. a ( *,block) column dist, where whole consecutive
     columns are owned). *)
  let ranges = portion_ranges t ~proc in
  let runs = ref [] in
  let emit buf (lo0, hi0) =
    buf.(0) <- lo0;
    let base = linear_element t buf in
    let lo_b = base * elem_bytes in
    let hi_b = ((base + (hi0 - lo0) + 1) * elem_bytes) - 1 in
    match !runs with
    | (plo, phi) :: rest when phi + 1 = lo_b -> runs := (plo, hi_b) :: rest
    | _ -> runs := (lo_b, hi_b) :: !runs
  in
  let dim0 = ranges.(0) in
  ranges.(0) <- [ (0, 0) ];
  iter_box ranges (fun buf -> List.iter (emit buf) dim0);
  List.rev !runs

let pp ppf t =
  Format.fprintf ppf "@[<h>(%a) dist (%a) %a@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (Array.to_list t.extents)
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Kind.pp)
    (Array.to_list t.kinds) Grid.pp t.grid

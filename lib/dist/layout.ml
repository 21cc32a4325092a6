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

let iter_portion t ~proc f =
  let ow = Grid.delinear t.grid proc in
  let nd = ndims t in
  let ranges = Array.init nd (fun d -> Dim_map.portion_ranges t.dims.(d) ~proc:ow.(d)) in
  if Array.exists (fun r -> r = []) ranges then ()
  else
    let buf = Array.make nd 0 in
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
    outer_rev (nd - 1)

let linear_element t idx =
  check_tuple t idx;
  let lin = ref 0 and stride = ref 1 in
  Array.iteri
    (fun d i ->
      if i < 0 || i >= t.extents.(d) then invalid_arg "Layout.linear_element: out of bounds";
      lin := !lin + (i * !stride);
      stride := !stride * t.extents.(d))
    idx;
  !lin

let contiguous_ranges t ~proc ~elem_bytes =
  (* The portion of a column-major array is contiguous in runs along dim 0
     (as long as dim 0 owns a contiguous range); enumerate runs by iterating
     the outer dimensions and taking dim-0 ranges. Adjacent runs are merged
     when they abut in linear address space (e.g. a ( *,block) column dist,
     where whole consecutive columns are owned). *)
  let ow = Grid.delinear t.grid proc in
  let nd = ndims t in
  let ranges = Array.init nd (fun d -> Dim_map.portion_ranges t.dims.(d) ~proc:ow.(d)) in
  if Array.exists (fun r -> r = []) ranges then []
  else
    let runs = ref [] in
    let buf = Array.make nd 0 in
    let emit lo0 hi0 =
      buf.(0) <- lo0;
      let base = linear_element t buf in
      let lo_b = base * elem_bytes in
      let hi_b = ((base + (hi0 - lo0) + 1) * elem_bytes) - 1 in
      match !runs with
      | (plo, phi) :: rest when phi + 1 = lo_b -> runs := (plo, hi_b) :: rest
      | _ -> runs := (lo_b, hi_b) :: !runs
    in
    let rec outer d =
      if d = 0 then List.iter (fun (lo, hi) -> emit lo hi) ranges.(0)
      else
        List.iter
          (fun (lo, hi) ->
            for i = lo to hi do
              buf.(d) <- i;
              outer (d - 1)
            done)
          ranges.(d)
    in
    (* outer dims slowest: drive from last dim; but runs must be emitted in
       increasing linear order, which column-major gives when the *outermost*
       loop is the last dimension. *)
    outer (nd - 1);
    List.rev !runs

let pp ppf t =
  Format.fprintf ppf "@[<h>(%a) dist (%a) %a@]"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (Array.to_list t.extents)
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Kind.pp)
    (Array.to_list t.kinds) Grid.pp t.grid

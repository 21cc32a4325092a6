type t = { per_dim : int array; total : int }

let prime_factors n =
  (* descending list of prime factors of n *)
  let rec go n d acc =
    if n = 1 then acc
    else if d * d > n then n :: acc
    else if n mod d = 0 then go (n / d) d (d :: acc)
    else go n (d + 1) acc
  in
  List.sort (fun a b -> compare b a) (go n 2 [])

let assign ~nprocs ~kinds ~onto =
  if nprocs < 1 then invalid_arg "Grid.assign: nprocs < 1";
  let ndims = Array.length kinds in
  let dist_dims =
    Array.to_list kinds
    |> List.mapi (fun i k -> (i, k))
    |> List.filter (fun (_, k) -> Kind.is_distributed k)
    |> List.map fst
  in
  let ndist = List.length dist_dims in
  let weights =
    match onto with
    | None -> List.map (fun _ -> 1.0) dist_dims
    | Some w ->
        if Array.length w <> ndist then
          invalid_arg "Grid.assign: onto clause arity mismatch";
        Array.iter
          (fun x -> if x < 1 then invalid_arg "Grid.assign: onto weight < 1")
          w;
        Array.to_list (Array.map float_of_int w)
  in
  let per_dim = Array.make ndims 1 in
  (match dist_dims with
  | [] -> ()
  | [ d ] -> per_dim.(d) <- nprocs
  | _ ->
      let dims = Array.of_list dist_dims in
      let w = Array.of_list weights in
      let cur = Array.make ndist 1.0 in
      List.iter
        (fun f ->
          (* put factor f on the dimension furthest below its weight ratio *)
          let best = ref 0 in
          for j = 1 to ndist - 1 do
            if cur.(j) /. w.(j) < cur.(!best) /. w.(!best) then best := j
          done;
          cur.(!best) <- cur.(!best) *. float_of_int f;
          per_dim.(dims.(!best)) <- per_dim.(dims.(!best)) * f)
        (prime_factors nprocs));
  let total = Array.fold_left ( * ) 1 per_dim in
  { per_dim; total }

let linear t owner =
  if Array.length owner <> Array.length t.per_dim then
    invalid_arg "Grid.linear: tuple arity mismatch";
  Array.iteri
    (fun d o ->
      if o < 0 || o >= t.per_dim.(d) then invalid_arg "Grid.linear: owner out of range")
    owner;
  Intmath.linear ~radices:t.per_dim owner

let delinear t p =
  if p < 0 || p >= t.total then invalid_arg "Grid.delinear: proc out of range";
  let owner = Array.make (Array.length t.per_dim) 0 in
  let rest = ref p in
  Array.iteri
    (fun d n ->
      owner.(d) <- !rest mod n;
      rest := !rest / n)
    t.per_dim;
  owner

let pp ppf t =
  Format.fprintf ppf "@[<h>grid(%a) = %d procs@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "x")
       Format.pp_print_int)
    (Array.to_list t.per_dim) t.total

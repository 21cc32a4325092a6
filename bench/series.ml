type point = { x : int; y : float }
type t = { label : string; points : point list }

let speedup ~baseline ~label pts =
  { label; points = List.map (fun (x, time) -> { x; y = baseline /. time }) pts }

let xs_of series =
  List.sort_uniq compare
    (List.concat_map (fun s -> List.map (fun p -> p.x) s.points) series)

let value_at s x =
  List.find_opt (fun p -> p.x = x) s.points |> Option.map (fun p -> p.y)

let pp_table ?(ylabel = "") ~xlabel ppf series =
  let xs = xs_of series in
  let col_w =
    List.map (fun s -> max 9 (String.length s.label + 2)) series
  in
  Format.fprintf ppf "%-8s" xlabel;
  List.iter2
    (fun s w -> Format.fprintf ppf "%*s" w s.label)
    series col_w;
  if ylabel <> "" then Format.fprintf ppf "   (%s)" ylabel;
  Format.pp_print_newline ppf ();
  List.iter
    (fun x ->
      Format.fprintf ppf "%-8d" x;
      List.iter2
        (fun s w ->
          match value_at s x with
          | Some y -> Format.fprintf ppf "%*.2f" w y
          | None -> Format.fprintf ppf "%*s" w "-")
        series col_w;
      Format.pp_print_newline ppf ())
    xs

let pp_chart ?(height = 16) ?(ideal = false) ~xlabel ppf series =
  let xs = xs_of series in
  match xs with
  | [] -> ()
  | _ ->
      let marks = [| 'R'; 'o'; '+'; 'x'; '*'; '#'; '@'; '%' |] in
      let ymax =
        List.fold_left
          (fun m s -> List.fold_left (fun m p -> Float.max m p.y) m s.points)
          1.0 series
      in
      let ymax = if ideal then Float.max ymax (float_of_int (List.fold_left max 1 xs)) else ymax in
      let width = List.length xs in
      let grid = Array.make_matrix height width ' ' in
      let plot y col mark =
        let row =
          height - 1 - int_of_float (y /. ymax *. float_of_int (height - 1))
        in
        let row = max 0 (min (height - 1) row) in
        if grid.(row).(col) = ' ' || grid.(row).(col) = '.' then
          grid.(row).(col) <- mark
      in
      if ideal then
        List.iteri (fun col x -> plot (float_of_int x) col '.') xs;
      List.iteri
        (fun si s ->
          List.iteri
            (fun col x ->
              match value_at s x with
              | Some y -> plot y col marks.(si mod Array.length marks)
              | None -> ())
            xs)
        series;
      for r = 0 to height - 1 do
        let yval =
          ymax *. float_of_int (height - 1 - r) /. float_of_int (height - 1)
        in
        Format.fprintf ppf "%7.1f |" yval;
        Array.iter (fun c -> Format.fprintf ppf " %c " c) grid.(r);
        Format.pp_print_newline ppf ()
      done;
      Format.fprintf ppf "        +";
      List.iter (fun _ -> Format.fprintf ppf "---") xs;
      Format.pp_print_newline ppf ();
      Format.fprintf ppf "         ";
      List.iter (fun x -> Format.fprintf ppf "%3d" x) xs;
      Format.fprintf ppf "  (%s)@." xlabel;
      List.iteri
        (fun si s ->
          Format.fprintf ppf "         %c = %s@."
            marks.(si mod Array.length marks)
            s.label)
        series;
      if ideal then Format.fprintf ppf "         . = linear speedup@."

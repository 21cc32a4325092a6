type violation = { invariant : string; detail : string }

let v invariant fmt =
  Printf.ksprintf (fun detail -> { invariant; detail }) fmt

let pp ppf x = Format.fprintf ppf "[%s] %s" x.invariant x.detail

let pp_list ppf = function
  | [] -> Format.pp_print_string ppf "audit clean"
  | vs ->
      Format.fprintf ppf "@[<v>%d invariant violation(s):@ %a@]" (List.length vs)
        (Format.pp_print_list pp) vs

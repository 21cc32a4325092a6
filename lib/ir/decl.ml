type dim = { dlo : Expr.t; dhi : Expr.t }

type vdecl = { vname : string; vty : Types.ty; vdims : dim list; vloc : Loc.t }

type dist = {
  dtarget : string;
  dkinds : Ddsm_dist.Kind.t list;
  donto : int list option;
  dreshape : bool;
  dloc : Loc.t;
}

type rkind = Program | Subroutine

type routine = {
  rname : string;
  rkind : rkind;
  rparams : string list;
  rdecls : vdecl list;
  rconsts : (string * Expr.t) list;
  rcommons : (string * string list) list;
  requivs : (string * string) list;
  rdists : dist list;
  rbody : Stmt.t list;
  rloc : Loc.t;
}

type file = { fname : string; routines : routine list }

let find_routine f name = List.find_opt (fun r -> r.rname = name) f.routines
let pp_dist ppf d =
  Format.fprintf ppf "c$distribute%s %s(%a)%a"
    (if d.dreshape then "_reshape" else "")
    d.dtarget
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Ddsm_dist.Kind.pp)
    d.dkinds
    (fun ppf -> function
      | None -> ()
      | Some ws ->
          Format.fprintf ppf " onto(%s)"
            (String.concat "," (List.map string_of_int ws)))
    d.donto

let pp_vdecl ppf v =
  match v.vdims with
  | [] -> Format.fprintf ppf "%a %s" Types.pp_ty v.vty v.vname
  | dims ->
      Format.fprintf ppf "%a %s(%a)" Types.pp_ty v.vty v.vname
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf { dlo; dhi } ->
             match dlo with
             | Expr.Int 1 -> Expr.pp ppf dhi
             | _ -> Format.fprintf ppf "%a:%a" Expr.pp dlo Expr.pp dhi))
        dims

let pp_routine ppf r =
  Format.fprintf ppf "@[<v 2>%s %s(%s)@ %a@ %a@ %a@]@ end"
    (match r.rkind with Program -> "program" | Subroutine -> "subroutine")
    r.rname
    (String.concat ", " r.rparams)
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_vdecl)
    r.rdecls
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_dist)
    r.rdists Stmt.pp_body r.rbody

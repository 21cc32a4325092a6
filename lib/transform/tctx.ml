open Ddsm_ir
module Sema = Ddsm_sema.Sema

type arr = {
  name : string;
  kinds : Ddsm_dist.Kind.t array;
  reshape : bool;
  dynamic : bool;
  lowers : int array;
  extents : int array option;
  ty : Types.ty;
  group : string;
}

type t = {
  env : Sema.env;
  fresh_names : Fresh.t;
  arrays : (string, arr) Hashtbl.t;
}

let group_key ~kinds ~lowers ~extents ~onto =
  Format.asprintf "%a/%s/%s/%s"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Ddsm_dist.Kind.pp)
    (Array.to_list kinds)
    (String.concat "," (List.map string_of_int (Array.to_list lowers)))
    (match extents with
    | Some e -> String.concat "," (List.map string_of_int (Array.to_list e))
    | None -> "?")
    (match onto with
    | Some ws -> String.concat "," (List.map string_of_int ws)
    | None -> "-")

let create env =
  let arrays = Hashtbl.create 16 in
  let dynamic = Hashtbl.create 4 in
  List.iter
    (fun a -> Hashtbl.replace dynamic a ())
    (Stmt.arrays_redistributed env.Sema.routine.Decl.rbody);
  Hashtbl.iter
    (fun name sym ->
      match sym with
      | Sema.SArray ({ ai_dist = Some d; _ } as ai) ->
          let kinds = Array.of_list d.Decl.dkinds in
          let lowers, extents =
            match ai.Sema.ai_const_shape with
            | Some (lo, ext) -> (lo, Some ext)
            | None ->
                (* adjustable formals: lower bounds must still be literal *)
                let los =
                  List.map
                    (fun e -> Option.value ~default:1 (Expr.const_int e))
                    ai.Sema.ai_los
                in
                (Array.of_list los, None)
          in
          Hashtbl.replace arrays name
            {
              name;
              kinds;
              reshape = d.Decl.dreshape;
              dynamic = Hashtbl.mem dynamic name;
              lowers;
              extents;
              ty = ai.Sema.ai_ty;
              group =
                group_key ~kinds ~lowers ~extents ~onto:d.Decl.donto;
            }
      | _ -> ())
    env.Sema.syms;
  { env; fresh_names = Fresh.create (); arrays }

let fresh t hint = Fresh.var t.fresh_names hint
let env t = t.env
let distributed t name = Hashtbl.find_opt t.arrays name

let reshaped t name =
  match Hashtbl.find_opt t.arrays name with
  | Some a when a.reshape -> Some a
  | _ -> None

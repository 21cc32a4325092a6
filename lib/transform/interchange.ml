open Ddsm_ir

let is_ptile_var v =
  String.length v >= 5 && String.sub v 0 5 = "ptile"

let uses_var v e = List.mem v (Expr.free_vars e)

(* bottom-up: transform children, then try to swap a [do data { do ptile }]
   pair at this node (bubbling tile loops outward one level per parent). *)
let rec xform_stmt (t : Stmt.t) : Stmt.t =
  match t.Stmt.s with
  | Stmt.Do d -> (
      let d = { d with Stmt.body = List.map xform_stmt d.Stmt.body } in
      match d.Stmt.body with
      | [ { Stmt.s = Stmt.Do pt; loc = ploc } ]
        when is_ptile_var pt.Stmt.var
             && (not (is_ptile_var d.Stmt.var))
             && (not (uses_var d.Stmt.var pt.Stmt.lo))
             && (not (uses_var d.Stmt.var pt.Stmt.hi))
             && not
                  (match pt.Stmt.step with
                  | Some s -> uses_var d.Stmt.var s
                  | None -> false) ->
          let inner = Stmt.mk ~loc:t.Stmt.loc (Stmt.Do { d with Stmt.body = pt.Stmt.body }) in
          Stmt.mk ~loc:ploc (Stmt.Do { pt with Stmt.body = [ inner ] })
      | _ -> { t with Stmt.s = Stmt.Do d })
  | _ -> Stmt.map_bodies (List.map xform_stmt) t

(* only touch loops inside Par regions *)
let rec outer (t : Stmt.t) : Stmt.t =
  match t.Stmt.s with
  | Stmt.Par _ -> Stmt.map_bodies (List.map xform_stmt) t
  | _ -> Stmt.map_bodies (List.map outer) t

let routine (r : Decl.routine) = { r with Decl.rbody = List.map outer r.Decl.rbody }

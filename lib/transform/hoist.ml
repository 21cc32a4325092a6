open Ddsm_ir

let contains_expensive e =
  Expr.exists
    (function
      | Expr.Meta _ | Expr.BaseOf _ | Expr.Idiv _ | Expr.Imod _ -> true | _ -> false)
    e

(* [GatherBase] counts as a memory read: its value is defined by the most
   recent execution of its site's [Stmt.Gather], so it must never move
   above one. *)
let reads_memory e =
  Expr.exists
    (function
      | Expr.AbsLoad _ | Expr.Ref _ | Expr.GatherBase _ -> true | _ -> false)
    e

let has_string e = Expr.exists (function Expr.Str _ -> true | _ -> false) e

(* Arrays whose layout tables an expression consults. *)
let meta_arrays e =
  let acc = ref [] in
  Expr.iter
    (function
      | Expr.Meta (a, _) | Expr.BaseOf (a, _) ->
          if not (List.mem a !acc) then acc := a :: !acc
      | _ -> ())
    e;
  !acc

let invariant ~killed ~relaid e =
  (not (reads_memory e))
  && (not (has_string e))
  && List.for_all (fun v -> not (List.mem v killed)) (Expr.free_vars e)
  && List.for_all (fun a -> not (List.mem a relaid)) (meta_arrays e)

let size e =
  let n = ref 0 in
  Expr.iter (fun _ -> incr n) e;
  !n

(* Hoist (a) anything containing the unsafe-but-constant expensive ops the
   paper targets, and (b) ordinary invariant arithmetic of non-trivial size
   — the job of the "regular loop-nest optimizations" the reshaped code is
   integrated with (§7.4 step 2). Without (b), lowered address arithmetic
   would be recomputed per iteration, which no production compiler does. *)
let hoistable ~killed ~relaid e =
  invariant ~killed ~relaid e
  && (contains_expensive e || size e >= 3)
  && (match e with Expr.Int _ | Expr.Real _ | Expr.Var _ -> false | _ -> true)

(* Replace maximal hoistable subtrees top-down; records (temp, expr) pairs. *)
let rec extract ctx ~killed ~relaid ~acc (e : Expr.t) : Expr.t =
  if hoistable ~killed ~relaid e then begin
    (* reuse a temp if the same expression was already extracted *)
    match List.assoc_opt e !acc with
    | Some tv -> Expr.Var tv
    | None ->
        let tv = Tctx.fresh ctx "hoist" in
        acc := (e, tv) :: !acc;
        Expr.Var tv
  end
  else Expr.map_children (extract ctx ~killed ~relaid ~acc) e

(* Like Stmt.map_exprs, but does not descend into Par regions: their
   expressions reference the worker-private myp$/np$ bindings and may only
   be hoisted within the region (handled when recursion reaches it). *)
let rec map_exprs_no_par f (t : Stmt.t) : Stmt.t =
  match t.Stmt.s with
  | Stmt.Par _ -> t
  | _ -> Stmt.map_own_exprs f (Stmt.map_bodies (List.map (map_exprs_no_par f)) t)

let rec hoist_body ctx stmts = List.concat_map (hoist_stmt ctx) stmts

and hoist_stmt ctx (t : Stmt.t) : Stmt.t list =
  match t.Stmt.s with
  | Stmt.Do d ->
      let killed = d.Stmt.var :: Stmt.assigned_vars d.Stmt.body in
      (* a c$redistribute in the loop re-lays its target, so Meta/BaseOf
         reads of that array are not invariant across the loop *)
      let relaid = Stmt.arrays_redistributed d.Stmt.body in
      let acc = ref [] in
      let body' =
        List.map
          (fun s -> map_exprs_no_par (fun e -> extract ctx ~killed ~relaid ~acc e) s)
          d.Stmt.body
      in
      let pre =
        List.rev_map
          (fun (e, tv) -> Stmt.mk ~loc:t.Stmt.loc (Stmt.Assign (Stmt.LVar tv, e)))
          !acc
      in
      (* recurse: inner loops may hoist what remains *)
      pre @ [ { t with Stmt.s = Stmt.Do { d with Stmt.body = hoist_body ctx body' } } ]
  | _ -> [ Stmt.map_bodies (hoist_body ctx) t ]

let routine ctx (r : Decl.routine) =
  { r with Decl.rbody = hoist_body ctx r.Decl.rbody }

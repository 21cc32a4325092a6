(* Inspector-executor transformation of irregular loops (DESIGN.md §12).

   A loop nest whose body reads a rank-1 array through an index array,

       do i = lo, hi
         ... a(s * idx(f(i)) + c) ...

   cannot be analysed by the affine machinery of §3-§7: the referenced
   elements -- and hence their home nodes -- depend on run-time data.  The
   naive code pays a potentially remote access per iteration.  This pass
   splits such a nest into an INSPECTOR ([Stmt.Gather]) that walks the
   index vector once, bins the referenced elements by home node and
   bulk-fetches them into a per-site scratch buffer, and an EXECUTOR (the
   original nest with each qualifying reference rewritten to read the
   scratch word for its iteration slot via [Expr.GatherBase]).  The
   runtime caches the gather schedule keyed on the index and target
   array versions, so repeated sweeps pay inspection once.

   The transformation is applied only when it is provably equivalent to
   the naive loop:
   - the nest is a chain of unit-step [Do] loops (a [Doacross] may only
     be the root); bounds are invariant scalar expressions;
   - the innermost body contains no call, return, barrier,
     redistribution or nested parallel loop, so nothing can re-home or
     rewrite the arrays mid-nest;
   - target and index arrays are local non-formal, non-common,
     non-equivalenced, non-reshaped, and written nowhere in the nest;
   - only references in top-level assignments of the innermost body are
     rewritten: a reference under an [if] may never execute naively, and
     prefetching it could fault on an index value the guard excludes. *)

open Ddsm_ir
module Sema = Ddsm_sema.Sema

(* ---- expression admissibility ------------------------------------- *)

(* pure scalar arithmetic: safe to re-evaluate during the inspection walk
   (no memory reads, no environment-dependent intrinsics) *)
let rec pure_scalar (e : Expr.t) =
  match e with
  | Expr.Int _ -> true
  | Expr.Var _ -> true
  | Expr.Bin (_, a, b) -> pure_scalar a && pure_scalar b
  | Expr.Neg a -> pure_scalar a
  | _ -> false

(* invariant w.r.t. the nest: pure and reading no variable the nest
   assigns (loop variables included) *)
let invariant ~assigned e =
  pure_scalar e
  && List.for_all (fun v -> not (List.mem v assigned)) (Expr.free_vars e)

(* ---- subscript decomposition -------------------------------------- *)

(* [s * idx(gs) + c] with literal [s] and [c], in any association:
   returns (scale, index array, index subscripts, offset) *)
let decompose (sub : Expr.t) : (int * string * Expr.t list * int) option =
  let rec go e =
    match e with
    | Expr.Ref (idx, gs) -> Some (1, idx, gs, 0)
    | Expr.Neg a -> (
        match go a with
        | Some (s, idx, gs, c) -> Some (-s, idx, gs, -c)
        | None -> None)
    | Expr.Bin (Expr.Add, a, b) -> (
        match (Expr.const_int a, Expr.const_int b) with
        | _, Some k -> (
            match go a with
            | Some (s, idx, gs, c) -> Some (s, idx, gs, c + k)
            | None -> None)
        | Some k, _ -> (
            match go b with
            | Some (s, idx, gs, c) -> Some (s, idx, gs, c + k)
            | None -> None)
        | None, None -> None)
    | Expr.Bin (Expr.Sub, a, b) -> (
        match (Expr.const_int a, Expr.const_int b) with
        | _, Some k -> (
            match go a with
            | Some (s, idx, gs, c) -> Some (s, idx, gs, c - k)
            | None -> None)
        | Some k, _ -> (
            match go b with
            | Some (s, idx, gs, c) -> Some (-s, idx, gs, k - c)
            | None -> None)
        | None, None -> None)
    | Expr.Bin (Expr.Mul, a, b) -> (
        match (Expr.const_int a, Expr.const_int b) with
        | _, Some k -> (
            match go a with
            | Some (s, idx, gs, c) -> Some (s * k, idx, gs, c * k)
            | None -> None)
        | Some k, _ -> (
            match go b with
            | Some (s, idx, gs, c) -> Some (k * s, idx, gs, k * c)
            | None -> None)
        | None, None -> None)
    | _ -> None
  in
  match go sub with Some (0, _, _, _) -> None | r -> r

(* ---- array admissibility ------------------------------------------ *)

(* an array something else is equivalenced onto could be rewritten
   through the alias without the version counter noticing *)
let aliased env name =
  Hashtbl.fold
    (fun _ sym acc ->
      acc
      ||
      match sym with
      | Sema.SArray ai -> ai.Sema.ai_equiv_base = Some name
      | _ -> false)
    env.Sema.syms false

let plain_local_array env name =
  match Sema.find_array env name with
  | None -> None
  | Some ai ->
      if
        ai.Sema.ai_formal
        || ai.Sema.ai_common <> None
        || ai.Sema.ai_equiv_base <> None
        || aliased env name
        || (match ai.Sema.ai_dist with
           | Some d -> d.Decl.dreshape
           | None -> false)
      then None
      else Some ai

(* ---- nest collection ---------------------------------------------- *)

let unit_step (d : Stmt.do_) =
  match d.Stmt.step with None -> true | Some e -> Expr.const_int e = Some 1

(* maximal chain of unit-step singleton-body [Do]s: returns the rectangle
   dims (outermost first), the innermost body, and a rebuilder taking the
   rewritten innermost body back to the outer [do_] *)
let rec collect (d : Stmt.do_) :
    ((string * Expr.t * Expr.t) list
    * Stmt.t list
    * (Stmt.t list -> Stmt.do_))
    option =
  if not (unit_step d) then None
  else
    let base () =
      ( [ (d.Stmt.var, d.Stmt.lo, d.Stmt.hi) ],
        d.Stmt.body,
        fun nb -> { d with Stmt.body = nb } )
    in
    match d.Stmt.body with
    | [ ({ Stmt.s = Stmt.Do inner; _ } as inner_st) ] -> (
        match collect inner with
        | Some (dims, body, rebuild) ->
            Some
              ( (d.Stmt.var, d.Stmt.lo, d.Stmt.hi) :: dims,
                body,
                fun nb ->
                  {
                    d with
                    Stmt.body =
                      [ { inner_st with Stmt.s = Stmt.Do (rebuild nb) } ];
                  } )
        | None -> Some (base ()))
    | _ -> Some (base ())

(* nothing in the nest may re-home an array, transfer control out, or
   spawn further parallelism *)
let body_admissible stmts =
  Stmt.fold
    (fun ok (st : Stmt.t) ->
      ok
      &&
      match st.Stmt.s with
      | Stmt.Assign _ | Stmt.Continue | Stmt.Print _ | Stmt.Do _ | Stmt.If _ -> true
      | Stmt.Call _ | Stmt.Redistribute _ | Stmt.Return | Stmt.Barrier
      | Stmt.Doacross _ | Stmt.AbsStore _ | Stmt.Par _ | Stmt.Gather _ ->
        false)
    true stmts

(* ---- the pass ----------------------------------------------------- *)

(* iteration slot of the current loop-variable values: Horner over the
   rectangle extents, innermost dimension fastest -- the same
   linearization [Stmt.Gather]'s inspection walk uses *)
let slot_expr dims =
  List.fold_left
    (fun acc (v, lo, hi) ->
      let rel = Expr.Bin (Expr.Sub, Expr.Var v, lo) in
      match acc with
      | None -> Some rel
      | Some acc ->
          let extent =
            Expr.Bin (Expr.Add, Expr.Bin (Expr.Sub, hi, lo), Expr.Int 1)
          in
          Some (Expr.Bin (Expr.Add, Expr.Bin (Expr.Mul, acc, extent), rel)))
    None dims
  |> Option.get

let routine tctx (r : Decl.routine) : Decl.routine =
  let env = Tctx.env tctx in
  let next_id = ref 0 in
  let try_nest (root : Stmt.t) : Stmt.t list option =
    let d0, rebuild_root =
      match root.Stmt.s with
      | Stmt.Do d -> (d, fun d' -> { root with Stmt.s = Stmt.Do d' })
      | Stmt.Doacross da ->
          ( da.Stmt.loop,
            fun d' ->
              { root with Stmt.s = Stmt.Doacross { da with Stmt.loop = d' } }
          )
      | _ -> invalid_arg "Inspector.try_nest"
    in
    match collect d0 with
    | None -> None
    | Some (dims, body, rebuild) ->
        let assigned = Stmt.assigned_vars [ root ] in
        let written = Stmt.arrays_written [ root ] in
        let nest_vars = List.map (fun (v, _, _) -> v) dims in
        if
          (not (body_admissible body))
          || not
               (List.for_all
                  (fun (_, lo, hi) ->
                    invariant ~assigned lo && invariant ~assigned hi)
                  dims)
        then None
        else
          (* a variable an index subscript may read: a rectangle variable,
             or a scalar nothing in the nest assigns *)
          let isub_var_ok v =
            List.mem v nest_vars || not (List.mem v assigned)
          in
          (* a reference the nest can gather: the gather it needs (its
             [g_id] set when the site is first seen) and the target's
             element type *)
          let candidate e =
            match e with
            | Expr.Ref (target, [ sub ]) -> (
                match decompose sub with
                | None -> None
                | Some (scale, index, isubs, off) ->
                    if
                      target <> index
                      && (not (List.mem target written))
                      && (not (List.mem index written))
                      && List.for_all pure_scalar isubs
                      && List.for_all
                           (fun g ->
                             List.for_all isub_var_ok (Expr.free_vars g))
                           isubs
                    then (
                      match
                        ( plain_local_array env target,
                          plain_local_array env index )
                      with
                      | Some tai, Some iai
                        when List.length tai.Sema.ai_los = 1
                             && iai.Sema.ai_ty = Types.Tint
                             && List.length iai.Sema.ai_los
                                = List.length isubs ->
                          Some
                            ( {
                                Stmt.g_id = -1;
                                g_target = target;
                                g_index = index;
                                g_scale = scale;
                                g_off = off;
                                g_dims = dims;
                                g_isubs = isubs;
                              },
                              tai.Sema.ai_ty )
                      | _ -> None)
                    else None)
            | _ -> None
          in
          let sites = ref [] in
          let site_id (g : Stmt.gather) =
            match
              List.find_opt (fun s -> { s with Stmt.g_id = -1 } = g) !sites
            with
            | Some s -> s.Stmt.g_id
            | None ->
                let id = !next_id in
                incr next_id;
                sites := { g with Stmt.g_id = id } :: !sites;
                id
          in
          let slot = slot_expr dims in
          let rewrite_expr e =
            Expr.map
              (fun node ->
                match candidate node with
                | None -> node
                | Some (g, ty) ->
                    Expr.simplify
                      (Expr.AbsLoad
                         ( ty,
                           Expr.Bin
                             (Expr.Add, Expr.GatherBase (site_id g), slot) )))
              e
          in
          (* only top-level assignments of the innermost body: a reference
             under [if] may never execute naively *)
          let body' =
            List.map
              (fun (st : Stmt.t) ->
                match st.Stmt.s with
                | Stmt.Assign (lhs, rhs) ->
                    let lhs =
                      match lhs with
                      | Stmt.LVar _ -> lhs
                      | Stmt.LRef (a, subs) ->
                          Stmt.LRef (a, List.map rewrite_expr subs)
                    in
                    { st with Stmt.s = Stmt.Assign (lhs, rewrite_expr rhs) }
                | _ -> st)
              body
          in
          if !sites = [] then None
          else
            let gathers =
              List.rev_map
                (fun g -> Stmt.mk ~loc:root.Stmt.loc (Stmt.Gather g))
                !sites
            in
            Some (gathers @ [ rebuild_root (rebuild body') ])
  in
  (* serial-context walk: a [Gather] must run on the master task, so we
     never descend into a [Doacross] body (the root itself may be one) *)
  let rec serial_body stmts = List.concat_map serial_stmt stmts
  and serial_stmt (st : Stmt.t) : Stmt.t list =
    let nest =
      match st.Stmt.s with
      | Stmt.Do _ | Stmt.Doacross _ -> try_nest st
      | _ -> None
    in
    match (nest, st.Stmt.s) with
    | Some stmts, _ -> stmts
    | None, Stmt.Doacross _ -> [ st ]
    | None, _ -> [ Stmt.map_bodies serial_body st ]
  in
  { r with Decl.rbody = serial_body r.Decl.rbody }

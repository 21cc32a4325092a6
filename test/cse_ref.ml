(* Reference §7.2 CSE: the direct formulation, which re-walks the whole
   block for every candidate in every round. It is the oracle of the
   differential tests in test_transform.ml: [Cse] must produce the same
   routines, with the same sharing, and draw the same fresh names. Not
   used by the compiler. *)

open Ddsm_transform
open Ddsm_ir

let candidate e =
  Hoist.(contains_expensive e)
  && (not
        (Expr.exists
           (function
             | Expr.AbsLoad _ | Expr.Ref _ | Expr.Str _ | Expr.GatherBase _ ->
                 true
             | _ -> false)
           e))

(* Expressions appearing at block level in a statement: everything except
   the contents of nested bodies (each nested body is its own block). *)
let shallow_exprs (t : Stmt.t) =
  match t.Stmt.s with
  | Stmt.Assign (Stmt.LVar _, e) -> [ e ]
  | Stmt.Assign (Stmt.LRef (_, subs), e) -> subs @ [ e ]
  | Stmt.AbsStore (_, a, v) -> [ a; v ]
  | Stmt.Do d -> (d.Stmt.lo :: d.Stmt.hi :: Option.to_list d.Stmt.step)
  | Stmt.If (c, _, _) -> [ c ]
  | Stmt.Call (_, args) -> args
  | Stmt.Print es -> es
  | _ -> []

let shallow_map f (t : Stmt.t) =
  let s =
    match t.Stmt.s with
    | Stmt.Assign (Stmt.LVar x, e) -> Stmt.Assign (Stmt.LVar x, f e)
    | Stmt.Assign (Stmt.LRef (a, subs), e) ->
        Stmt.Assign (Stmt.LRef (a, List.map f subs), f e)
    | Stmt.AbsStore (ty, a, v) -> Stmt.AbsStore (ty, f a, f v)
    | Stmt.Do d ->
        Stmt.Do { d with Stmt.lo = f d.Stmt.lo; hi = f d.Stmt.hi; step = Option.map f d.Stmt.step }
    | Stmt.If (c, th, el) -> Stmt.If (f c, th, el)
    | Stmt.Call (n, args) -> Stmt.Call (n, List.map f args)
    | Stmt.Print es -> Stmt.Print (List.map f es)
    | other -> other
  in
  { t with Stmt.s }

(* Variables a statement assigns that are visible at block level (nested
   bodies count: a loop body assigning x kills candidates mentioning x). *)
let kills (t : Stmt.t) = Stmt.assigned_vars [ t ]

let expr_size e =
  let n = ref 0 in
  Expr.iter (fun _ -> incr n) e;
  !n

(* count occurrences of [c] within [e] (maximal, non-overlapping) *)
let rec count_in c e =
  if Expr.equal c e then 1
  else
    match e with
    | Expr.Int _ | Expr.Real _ | Expr.Str _ | Expr.Var _ | Expr.Meta _
    | Expr.GatherBase _ ->
        0
    | Expr.Ref (_, subs) | Expr.Intrin (_, subs) ->
        List.fold_left (fun acc x -> acc + count_in c x) 0 subs
    | Expr.Bin (_, a, b)
    | Expr.Rel (_, a, b)
    | Expr.Log (_, a, b)
    | Expr.Idiv (_, a, b)
    | Expr.Imod (_, a, b) ->
        count_in c a + count_in c b
    | Expr.Not a | Expr.Neg a | Expr.BaseOf (_, a) | Expr.AbsLoad (_, a) ->
        count_in c a

let replace_in c tv e =
  Expr.map (fun x -> if Expr.equal x c then Expr.Var tv else x) e

(* One CSE round over a block: find the best candidate with >= 2 available
   occurrences in a kill-free segment; introduce a temp. Returns None when
   nothing profitable remains. *)
let round ctx (block : Stmt.t list) : Stmt.t list option =
  (* enumerate candidate subexpressions with their first position *)
  let cands : (Expr.t, unit) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun t ->
      List.iter
        (fun e ->
          Expr.iter (fun x -> if candidate x then Hashtbl.replace cands x ()) e)
        (shallow_exprs t))
    block;
  let best = ref None in
  Hashtbl.iter
    (fun c () ->
      (* walk the block accumulating kill-free segments; a c$redistribute of
         an array the candidate consults ([Meta]/[BaseOf]) kills it too — its
         descriptor values change at that point *)
      let fv = Expr.free_vars c in
      let ma = Hoist.meta_arrays c in
      let seg_start = ref 0 and seg_count = ref 0 in
      let consider i =
        if !seg_count >= 2 then
          match !best with
          | Some (_, _, _, cnt, sz)
            when cnt > !seg_count || (cnt = !seg_count && sz >= expr_size c) ->
              ()
          | _ -> best := Some (c, !seg_start, i, !seg_count, expr_size c)
      in
      List.iteri
        (fun i t ->
          let n = List.fold_left (fun acc e -> acc + count_in c e) 0 (shallow_exprs t) in
          seg_count := !seg_count + n;
          if
            List.exists (fun v -> List.mem v fv) (kills t)
            || List.exists
                 (fun a -> List.mem a ma)
                 (Stmt.arrays_redistributed [ t ])
          then begin
            consider (i + 1);
            seg_start := i + 1;
            seg_count := 0
          end)
        block;
      consider (List.length block))
    cands;
  match !best with
  | None -> None
  | Some (c, s0, s1, _, _) ->
      let tv = Tctx.fresh ctx "cse" in
      let out =
        List.concat
          (List.mapi
             (fun i t ->
               let t' = if i >= s0 && i < s1 then shallow_map (replace_in c tv) t else t in
               if i = s0 then
                 [ Stmt.mk ~loc:t.Stmt.loc (Stmt.Assign (Stmt.LVar tv, c)); t' ]
               else [ t' ])
             block)
      in
      Some out

let rec cse_block ctx block =
  let rec fix block iters =
    if iters > 50 then block
    else match round ctx block with None -> block | Some b -> fix b (iters + 1)
  in
  let block = fix block 0 in
  List.map
    (fun t ->
      match t.Stmt.s with
      | Stmt.Do d -> { t with Stmt.s = Stmt.Do { d with Stmt.body = cse_block ctx d.Stmt.body } }
      | Stmt.If (c, th, el) ->
          { t with Stmt.s = Stmt.If (c, cse_block ctx th, cse_block ctx el) }
      | Stmt.Par p -> { t with Stmt.s = Stmt.Par { Stmt.pbody = cse_block ctx p.Stmt.pbody } }
      | _ -> t)
    block

let routine ctx (r : Decl.routine) = { r with Decl.rbody = cse_block ctx r.Decl.rbody }

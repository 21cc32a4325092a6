open Ddsm_ir

type array_info = {
  ai_ty : Types.ty;
  ai_los : Expr.t list;
  ai_his : Expr.t list;
  ai_const_shape : (int array * int array) option;
  ai_dist : Decl.dist option;
  ai_formal : bool;
  ai_common : string option;
  ai_equiv_base : string option;
}

type sym =
  | SScalar of Types.ty * bool
  | SArray of array_info
  | SConst of Expr.t

type env = { routine : Decl.routine; syms : (string, sym) Hashtbl.t }

let find_sym env name = Hashtbl.find_opt env.syms name

let find_array env name =
  match find_sym env name with Some (SArray ai) -> Some ai | _ -> None

let loop_nest_vars (da : Stmt.doacross) =
  match da.Stmt.nest_vars with [] -> [ da.Stmt.loop.Stmt.var ] | vs -> vs

(* ------------------------------------------------------------------ *)

type ctx = {
  r : Decl.routine;
  syms : (string, sym) Hashtbl.t;
  mutable errs : (Loc.t * string) list;
  allow_formal_dists : bool;
  mutable in_par : bool;  (** checking a [c$doacross] body *)
}

let errf ctx loc fmt =
  Format.kasprintf (fun m -> ctx.errs <- (loc, m) :: ctx.errs) fmt

(* ------------------------------------------------------------------ *)
(* Types *)

let rec ty_of ctx (e : Expr.t) : Types.ty option =
  let promote a b =
    match (a, b) with
    | Some Types.Treal, Some _ | Some _, Some Types.Treal -> Some Types.Treal
    | Some Types.Tint, Some Types.Tint -> Some Types.Tint
    | _ -> None
  in
  match e with
  | Expr.Int _ -> Some Types.Tint
  | Expr.Real _ -> Some Types.Treal
  | Expr.Str _ -> None
  | Expr.Var x -> (
      match Hashtbl.find_opt ctx.syms x with
      | Some (SScalar (ty, _)) -> Some ty
      | Some (SConst (Expr.Int _)) -> Some Types.Tint
      | Some (SConst _) -> Some Types.Treal
      | Some (SArray ai) -> Some ai.ai_ty (* bare array name: element type *)
      | None -> None)
  | Expr.Ref (a, _) -> (
      match Hashtbl.find_opt ctx.syms a with
      | Some (SArray ai) -> Some ai.ai_ty
      | _ -> None)
  | Expr.Bin (_, x, y) -> promote (ty_of ctx x) (ty_of ctx y)
  | Expr.Rel _ | Expr.Log _ | Expr.Not _ -> Some Types.Tint
  | Expr.Neg x -> ty_of ctx x
  | Expr.Intrin (n, args) -> (
      match Intrinsics.lookup n with
      | None -> None
      | Some { result = `Int; _ } -> Some Types.Tint
      | Some { result = `Real; _ } -> Some Types.Treal
      | Some { result = `Same; _ } ->
          List.fold_left
            (fun acc a -> promote acc (ty_of ctx a))
            (Some Types.Tint) args)
  | Expr.Idiv _ | Expr.Imod _ | Expr.Meta _ | Expr.BaseOf _
  | Expr.GatherBase _ ->
      Some Types.Tint
  | Expr.AbsLoad (ty, _) -> Some ty

let type_of env e =
  let ctx =
    {
      r = env.routine;
      syms = env.syms;
      errs = [];
      allow_formal_dists = true;
      in_par = false;
    }
  in
  match ty_of ctx e with
  | Some ty -> ty
  | None -> invalid_arg ("Sema.type_of: untypable expression " ^ Expr.to_string e)

(* ------------------------------------------------------------------ *)
(* Constant (parameter) resolution *)

let fold_consts (r : Decl.routine) =
  let errs = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (name, e) ->
      let e =
        Expr.simplify
          (Expr.map
             (function
               | Expr.Var x as v -> (
                   match Hashtbl.find_opt tbl x with Some c -> c | None -> v)
               | other -> other)
             e)
      in
      match e with
      | Expr.Int _ | Expr.Real _ -> Hashtbl.replace tbl name e
      | _ ->
          errs :=
            ( r.Decl.rloc,
              Printf.sprintf "parameter %s is not a compile-time constant" name )
            :: !errs)
    r.Decl.rconsts;
  (tbl, !errs)

let subst_consts tbl e =
  Expr.map
    (function
      | Expr.Var x as v -> (
          match Hashtbl.find_opt tbl x with Some c -> c | None -> v)
      | other -> other)
    e

(* ------------------------------------------------------------------ *)
(* Declarations *)

let build_symtab ctx consts =
  let r = ctx.r in
  let common_of = Hashtbl.create 8 in
  List.iter
    (fun (blk, names) ->
      List.iter (fun n -> Hashtbl.replace common_of n blk) names)
    r.Decl.rcommons;
  (* distribution directives indexed by target, with legality checks *)
  let dist_of = Hashtbl.create 8 in
  List.iter
    (fun (d : Decl.dist) ->
      match Hashtbl.find_opt dist_of d.Decl.dtarget with
      | Some (prev : Decl.dist) ->
          if prev.Decl.dreshape <> d.Decl.dreshape then
            errf ctx d.Decl.dloc
              "array %s cannot be both distribute and distribute_reshape"
              d.Decl.dtarget
          else
            errf ctx d.Decl.dloc "duplicate distribution directive for %s"
              d.Decl.dtarget
      | None -> Hashtbl.replace dist_of d.Decl.dtarget d)
    r.Decl.rdists;
  let consts_tbl = consts in
  List.iter
    (fun (v : Decl.vdecl) ->
      if Hashtbl.mem consts_tbl v.Decl.vname then begin
        (* a type declaration for a parameter constant: legal if scalar *)
        if v.Decl.vdims <> [] then
          errf ctx v.Decl.vloc "parameter %s cannot be an array" v.Decl.vname
      end
      else if Hashtbl.mem ctx.syms v.Decl.vname then
        errf ctx v.Decl.vloc "duplicate declaration of %s" v.Decl.vname
      else if v.Decl.vdims = [] then
        Hashtbl.replace ctx.syms v.Decl.vname
          (SScalar (v.Decl.vty, List.mem v.Decl.vname r.Decl.rparams))
      else begin
        let los = List.map (fun d -> subst_consts consts d.Decl.dlo) v.Decl.vdims in
        let his = List.map (fun d -> subst_consts consts d.Decl.dhi) v.Decl.vdims in
        let formal = List.mem v.Decl.vname r.Decl.rparams in
        let const_shape =
          let lo_c = List.map Expr.const_int los
          and hi_c = List.map Expr.const_int his in
          if List.for_all Option.is_some lo_c && List.for_all Option.is_some hi_c
          then begin
            let lo = Array.of_list (List.map Option.get lo_c) in
            let hi = Array.of_list (List.map Option.get hi_c) in
            let ext = Array.map2 (fun h l -> h - l + 1) hi lo in
            if Array.exists (fun e -> e < 1) ext then begin
              errf ctx v.Decl.vloc "array %s has an empty dimension" v.Decl.vname;
              None
            end
            else Some (lo, ext)
          end
          else None
        in
        if const_shape = None && not formal then
          errf ctx v.Decl.vloc
            "array %s must have constant bounds (only formal parameters may \
             be adjustable)"
            v.Decl.vname;
        Hashtbl.replace ctx.syms v.Decl.vname
          (SArray
             {
               ai_ty = v.Decl.vty;
               ai_los = los;
               ai_his = his;
               ai_const_shape = const_shape;
               ai_dist = Hashtbl.find_opt dist_of v.Decl.vname;
               ai_formal = formal;
               ai_common = Hashtbl.find_opt common_of v.Decl.vname;
               ai_equiv_base = None;
             })
      end)
    r.Decl.rdecls;
  (* parameter constants become symbols too *)
  Hashtbl.iter
    (fun name c ->
      if Hashtbl.mem ctx.syms name then
        errf ctx r.Decl.rloc "parameter %s conflicts with a declaration" name
      else Hashtbl.replace ctx.syms name (SConst c))
    consts;
  (* every formal must be declared *)
  List.iter
    (fun p ->
      if not (Hashtbl.mem ctx.syms p) then
        errf ctx r.Decl.rloc "formal parameter %s is not declared" p)
    r.Decl.rparams;
  (* common members must be declared arrays or scalars, not formals *)
  List.iter
    (fun (blk, names) ->
      List.iter
        (fun n ->
          match Hashtbl.find_opt ctx.syms n with
          | None ->
              errf ctx r.Decl.rloc "common /%s/ member %s is not declared" blk n
          | Some (SArray { ai_formal = true; _ }) | Some (SScalar (_, true)) ->
              errf ctx r.Decl.rloc
                "common /%s/ member %s cannot be a formal parameter" blk n
          | Some (SConst _) ->
              errf ctx r.Decl.rloc
                "common /%s/ member %s cannot be a parameter constant" blk n
          | Some (SScalar _) ->
              errf ctx r.Decl.rloc
                "common /%s/ member %s: only arrays are supported in common \
                 blocks (see DESIGN.md)"
                blk n
          | Some _ -> ())
        names)
    r.Decl.rcommons;
  (* directive targets must be declared arrays; arity checks *)
  List.iter
    (fun (d : Decl.dist) ->
      match Hashtbl.find_opt ctx.syms d.Decl.dtarget with
      | Some (SArray ai) ->
          if List.length d.Decl.dkinds <> List.length ai.ai_los then
            errf ctx d.Decl.dloc
              "distribution of %s names %d dimensions but the array has %d"
              d.Decl.dtarget
              (List.length d.Decl.dkinds)
              (List.length ai.ai_los);
          if ai.ai_formal && not ctx.allow_formal_dists then
            errf ctx d.Decl.dloc
              "distribution directives are supplied at array definition \
               points, not on formal parameter %s (the compiler propagates \
               them automatically)"
              d.Decl.dtarget;
          let ndist =
            List.length (List.filter Ddsm_dist.Kind.is_distributed d.Decl.dkinds)
          in
          (match d.Decl.donto with
          | Some ws when List.length ws <> ndist ->
              errf ctx d.Decl.dloc
                "onto clause of %s has %d weights for %d distributed dimensions"
                d.Decl.dtarget (List.length ws) ndist
          | Some ws when List.exists (fun w -> w < 1) ws ->
              (* Grid.assign requires positive weights; rejecting here keeps
                 the failure a located compile-time error instead of a
                 runtime invariant violation at elaboration *)
              errf ctx d.Decl.dloc
                "onto clause of %s has a non-positive weight" d.Decl.dtarget
          | _ -> ());
          if ndist = 0 then
            errf ctx d.Decl.dloc "distribution of %s distributes no dimension"
              d.Decl.dtarget
      | Some _ ->
          errf ctx d.Decl.dloc "distribution target %s is not an array"
            d.Decl.dtarget
      | None ->
          errf ctx d.Decl.dloc "distribution target %s is not declared"
            d.Decl.dtarget)
    r.Decl.rdists;
  (* equivalences: declared local plain arrays; never reshaped (§6) *)
  List.iter
    (fun (a, b) ->
      let check n =
        match Hashtbl.find_opt ctx.syms n with
        | None ->
            errf ctx r.Decl.rloc "equivalenced name %s is not declared" n;
            None
        | Some (SArray ai) ->
            (match ai.ai_dist with
            | Some { Decl.dreshape = true; _ } ->
                errf ctx r.Decl.rloc
                  "reshaped array %s cannot be equivalenced to another array" n
            | _ -> ());
            if ai.ai_formal then
              errf ctx r.Decl.rloc "formal parameter %s cannot be equivalenced" n;
            Some ai
        | Some _ ->
            errf ctx r.Decl.rloc "equivalence of scalars is not supported (%s)" n;
            None
      in
      match (check a, check b) with
      | Some ai_a, Some ai_b -> (
          match (ai_a.ai_const_shape, ai_b.ai_const_shape) with
          | Some (_, ea), Some (_, eb) ->
              let words e = Array.fold_left ( * ) 1 e in
              if words eb > words ea then
                errf ctx r.Decl.rloc
                  "equivalenced array %s is larger than its base %s" b a
              else
                Hashtbl.replace ctx.syms b
                  (SArray { ai_b with ai_equiv_base = Some a })
          | _ -> ())
      | _ -> ())
    r.Decl.requivs

(* ------------------------------------------------------------------ *)
(* Expression checking / rewriting *)

let rec check_expr ctx ~loc ~bare_ok (e : Expr.t) : Expr.t =
  let recur = check_expr ctx ~loc ~bare_ok:false in
  match e with
  | Expr.Int _ | Expr.Real _ | Expr.Str _ -> e
  | Expr.Var x -> (
      match Hashtbl.find_opt ctx.syms x with
      | Some (SScalar _) | Some (SConst _) -> e
      | Some (SArray _) ->
          if not bare_ok then
            errf ctx loc
              "array %s used without subscripts outside a call argument" x;
          e
      | None ->
          errf ctx loc "undeclared variable %s" x;
          e)
  | Expr.Ref (name, subs) -> (
      match Hashtbl.find_opt ctx.syms name with
      | Some (SArray ai) ->
          if List.length subs <> List.length ai.ai_los then
            errf ctx loc "array %s has %d dimensions but is subscripted with %d"
              name (List.length ai.ai_los) (List.length subs);
          let subs = List.map recur subs in
          List.iter
            (fun s ->
              match ty_of ctx s with
              | Some Types.Tint -> ()
              | Some Types.Treal ->
                  errf ctx loc "subscript of %s is not an integer expression" name
              | _ -> ())
            subs;
          Expr.Ref (name, subs)
      | Some _ ->
          errf ctx loc "%s is not an array" name;
          e
      | None -> (
          match Intrinsics.lookup name with
          | Some sg ->
              let n = List.length subs in
              let lo, hi = sg.arity in
              if n < lo || n > hi then
                errf ctx loc "intrinsic %s expects %d..%d arguments, got %d"
                  name lo hi n;
              let subs =
                List.mapi
                  (fun i s ->
                    if i = 0 && sg.array_arg then begin
                      (match s with
                      | Expr.Var a -> (
                          match Hashtbl.find_opt ctx.syms a with
                          | Some (SArray { ai_dist = Some _; _ }) -> ()
                          | Some (SArray _) ->
                              errf ctx loc
                                "intrinsic %s requires a distributed array, %s \
                                 is not distributed"
                                name a
                          | _ ->
                              errf ctx loc
                                "first argument of %s must name an array" name)
                      | _ ->
                          errf ctx loc "first argument of %s must name an array"
                            name);
                      check_expr ctx ~loc ~bare_ok:true s
                    end
                    else recur s)
                  subs
              in
              Expr.Intrin (name, subs)
          | None ->
              errf ctx loc "%s is neither a declared array nor an intrinsic" name;
              e))
  | Expr.Bin (op, x, y) -> Expr.Bin (op, recur x, recur y)
  | Expr.Rel (op, x, y) -> Expr.Rel (op, recur x, recur y)
  | Expr.Log (op, x, y) -> Expr.Log (op, recur x, recur y)
  | Expr.Not x -> Expr.Not (recur x)
  | Expr.Neg x -> Expr.Neg (recur x)
  | Expr.Intrin (n, args) -> Expr.Intrin (n, List.map recur args)
  | Expr.Idiv (i, x, y) -> Expr.Idiv (i, recur x, recur y)
  | Expr.Imod (i, x, y) -> Expr.Imod (i, recur x, recur y)
  | Expr.Meta _ | Expr.BaseOf _ | Expr.AbsLoad _ | Expr.GatherBase _ -> e

(* ------------------------------------------------------------------ *)
(* Statement checking / rewriting *)

let int_scalar ctx ~loc name what =
  match Hashtbl.find_opt ctx.syms name with
  | Some (SScalar (Types.Tint, _)) -> ()
  | Some _ -> errf ctx loc "%s %s must be an integer scalar" what name
  | None -> errf ctx loc "undeclared %s %s" what name

let check_const_step ctx ~loc (d : Stmt.do_) =
  match d.Stmt.step with
  | None -> 1
  | Some s -> (
      match Expr.const_int s with
      | Some 0 ->
          errf ctx loc "do %s: zero step" d.Stmt.var;
          1
      | Some k -> k
      | None ->
          errf ctx loc "do %s: step must be an integer constant" d.Stmt.var;
          1)

(* [f x], checked as a [c$doacross] body *)
let in_par ctx f x =
  let outer = ctx.in_par in
  ctx.in_par <- true;
  let y = f x in
  ctx.in_par <- outer;
  y

let rec check_stmt ctx (t : Stmt.t) : Stmt.t =
  let loc = t.Stmt.loc in
  let s =
    match t.Stmt.s with
    | Stmt.Assign (Stmt.LVar x, e) ->
        (match Hashtbl.find_opt ctx.syms x with
        | Some (SScalar _) -> ()
        | Some (SConst _) -> errf ctx loc "cannot assign to parameter constant %s" x
        | Some (SArray _) -> errf ctx loc "cannot assign to array %s without subscripts" x
        | None -> errf ctx loc "undeclared variable %s" x);
        Stmt.Assign (Stmt.LVar x, check_expr ctx ~loc ~bare_ok:false e)
    | Stmt.Assign (Stmt.LRef (a, subs), e) -> (
        let r = check_expr ctx ~loc ~bare_ok:false (Expr.Ref (a, subs)) in
        let e = check_expr ctx ~loc ~bare_ok:false e in
        match r with
        | Expr.Ref (a, subs) -> Stmt.Assign (Stmt.LRef (a, subs), e)
        | Expr.Intrin _ ->
            errf ctx loc "cannot assign to intrinsic %s" a;
            Stmt.Assign (Stmt.LRef (a, subs), e)
        | _ -> Stmt.Assign (Stmt.LRef (a, subs), e))
    | Stmt.AbsStore (ty, addr, v) ->
        Stmt.AbsStore
          ( ty,
            check_expr ctx ~loc ~bare_ok:false addr,
            check_expr ctx ~loc ~bare_ok:false v )
    | Stmt.Do d -> Stmt.Do (check_do ctx ~loc d)
    | Stmt.If (c, th, el) ->
        Stmt.If
          ( check_expr ctx ~loc ~bare_ok:false c,
            List.map (check_stmt ctx) th,
            List.map (check_stmt ctx) el )
    | Stmt.Call (n, args) ->
        Stmt.Call (n, List.map (check_expr ctx ~loc ~bare_ok:true) args)
    | Stmt.Doacross da -> Stmt.Doacross (check_doacross ctx ~loc da)
    | Stmt.Redistribute rd ->
        (* every iteration would relayout the shared array under its
           siblings' accesses *)
        if ctx.in_par then
          errf ctx loc
            "c$redistribute %s inside a c$doacross body: redistribute \
             before or after the parallel loop"
            rd.Stmt.rarray;
        (match Hashtbl.find_opt ctx.syms rd.Stmt.rarray with
        | Some (SArray ai) -> (
            match ai.ai_dist with
            | None ->
                errf ctx loc "redistribute target %s is not a distributed array"
                  rd.Stmt.rarray
            | Some _ ->
                (* reshaped targets are legal since the redistribution
                   engine: the runtime rebuilds the portions aside and
                   installs them atomically. A FORMAL cannot be
                   redistributed — the caller's actual keeps its own
                   layout and the callee would silently diverge from it. *)
                if ai.ai_formal then
                  errf ctx loc
                    "cannot redistribute formal argument %s: the layout \
                     belongs to the caller's actual array"
                    rd.Stmt.rarray;
                if List.length rd.Stmt.rkinds <> List.length ai.ai_los then
                  errf ctx loc "redistribute of %s has wrong dimensionality"
                    rd.Stmt.rarray;
                let ndist =
                  List.length
                    (List.filter Ddsm_dist.Kind.is_distributed rd.Stmt.rkinds)
                in
                (match rd.Stmt.ronto with
                | Some ws when List.length ws <> ndist ->
                    errf ctx loc
                      "onto clause of redistribute %s has %d weights for %d \
                       distributed dimensions"
                      rd.Stmt.rarray (List.length ws) ndist
                | Some ws when List.exists (fun w -> w < 1) ws ->
                    errf ctx loc
                      "onto clause of redistribute %s has a non-positive weight"
                      rd.Stmt.rarray
                | _ -> ());
                (match rd.Stmt.rprocs with
                | Some p when p < 1 ->
                    errf ctx loc
                      "procs clause of redistribute %s must request at least \
                       one processor (got %d)"
                      rd.Stmt.rarray p
                | _ -> ()))
        | _ -> errf ctx loc "redistribute target %s is not declared" rd.Stmt.rarray);
        Stmt.Redistribute rd
    | Stmt.Continue | Stmt.Return | Stmt.Barrier | Stmt.Gather _ -> t.Stmt.s
    | Stmt.Par p -> Stmt.Par { Stmt.pbody = List.map (check_stmt ctx) p.Stmt.pbody }
    | Stmt.Print es ->
        Stmt.Print
          (List.map
             (fun e ->
               match e with
               | Expr.Str _ -> e
               | _ -> check_expr ctx ~loc ~bare_ok:false e)
             es)
  in
  { t with Stmt.s }

and check_do ctx ~loc (d : Stmt.do_) =
  int_scalar ctx ~loc d.Stmt.var "loop variable";
  ignore (check_const_step ctx ~loc d);
  {
    d with
    Stmt.lo = check_expr ctx ~loc ~bare_ok:false d.Stmt.lo;
    hi = check_expr ctx ~loc ~bare_ok:false d.Stmt.hi;
    step = Option.map (check_expr ctx ~loc ~bare_ok:false) d.Stmt.step;
    body = List.map (check_stmt ctx) d.Stmt.body;
  }

and check_doacross ctx ~loc (da : Stmt.doacross) =
  List.iter
    (fun x ->
      if not (Hashtbl.mem ctx.syms x) then
        errf ctx loc "local clause names undeclared variable %s" x)
    da.Stmt.locals;
  List.iter
    (fun x ->
      if not (Hashtbl.mem ctx.syms x) then
        errf ctx loc "shared clause names undeclared variable %s" x)
    da.Stmt.shareds;
  (* nest: the named variables must form a perfect nest from the outer loop *)
  let nest = loop_nest_vars da in
  (let rec walk vars (d : Stmt.do_) =
     match vars with
     | [] -> ()
     | v :: rest -> (
         if d.Stmt.var <> v then
           errf ctx loc "nest clause variable %s does not match loop variable %s"
             v d.Stmt.var;
         match rest with
         | [] -> ()
         | _ -> (
             match d.Stmt.body with
             | [ { Stmt.s = Stmt.Do inner; _ } ] -> walk rest inner
             | _ ->
                 errf ctx loc
                   "nest(%s) requires a perfect loop nest (the %s loop must \
                    contain only the next loop)"
                   (String.concat "," da.Stmt.nest_vars)
                   d.Stmt.var))
   in
   walk nest da.Stmt.loop);
  (* steps of the parallel loops must be positive constants *)
  (let rec steps vars (d : Stmt.do_) =
     match vars with
     | [] -> ()
     | _ :: rest ->
         let k = check_const_step ctx ~loc d in
         if k < 0 then
           errf ctx loc "parallel loop %s must have a positive step" d.Stmt.var;
         (match (rest, d.Stmt.body) with
         | v :: _, [ { Stmt.s = Stmt.Do inner; _ } ] when inner.Stmt.var = v ->
             steps rest inner
         | _ -> ())
   in
   steps nest da.Stmt.loop);
  (* affinity legality *)
  let affinity =
    match da.Stmt.affinity with
    | None -> None
    | Some a ->
        List.iter
          (fun v ->
            if not (List.mem v nest) then
              errf ctx loc
                "affinity variable %s is not a parallel loop variable of this \
                 doacross"
                v)
          a.Stmt.avars;
        (match Hashtbl.find_opt ctx.syms a.Stmt.aarray with
        | Some (SArray ai) -> (
            match ai.ai_dist with
            | Some _ ->
                if List.length a.Stmt.asubs <> List.length ai.ai_los then
                  errf ctx loc "affinity reference to %s has wrong rank"
                    a.Stmt.aarray
            | None ->
                errf ctx loc "affinity array %s is not distributed" a.Stmt.aarray)
        | _ -> errf ctx loc "affinity array %s is not declared" a.Stmt.aarray);
        let asubs = List.map (check_expr ctx ~loc ~bare_ok:false) a.Stmt.asubs in
        (* a distributed dimension whose subscript names no affinity
           variable pins the iterations to that coordinate's owner, so it
           must be a compile-time constant *)
        (match Hashtbl.find_opt ctx.syms a.Stmt.aarray with
        | Some (SArray { ai_dist = Some dd; _ }) ->
            List.iteri
              (fun d sub ->
                let kind = List.nth_opt dd.Decl.dkinds d in
                let has_avar =
                  List.exists (fun v -> List.mem v (Expr.free_vars sub)) a.Stmt.avars
                in
                match kind with
                | Some k
                  when Ddsm_dist.Kind.is_distributed k && (not has_avar)
                       && Expr.const_int (Expr.simplify sub) = None ->
                    errf ctx loc
                      "affinity reference %s: subscript %s in distributed \
                       dimension %d must use an affinity variable or be a \
                       constant"
                      a.Stmt.aarray (Expr.to_string sub) (d + 1)
                | _ -> ())
              asubs
        | _ -> ());
        (* each affinity variable must appear in exactly one subscript, in
           the literal affine form s*v + c with s >= 0 (§3.4) *)
        List.iter
          (fun v ->
            let mentioning =
              List.filter (fun s -> List.mem v (Expr.free_vars s)) asubs
            in
            match mentioning with
            | [ s ] -> (
                match Expr.affine_in v (Expr.simplify s) with
                | Some (sc, _) when sc >= 0 -> ()
                | Some _ ->
                    errf ctx loc
                      "affinity subscript %s of %s: the coefficient of %s must \
                       be non-negative"
                      (Expr.to_string s) a.Stmt.aarray v
                | None ->
                    errf ctx loc
                      "affinity subscript %s of %s must be of the literal form \
                       p*%s+q"
                      (Expr.to_string s) a.Stmt.aarray v)
            | [] ->
                errf ctx loc
                  "affinity variable %s does not appear in the data reference" v
            | _ ->
                errf ctx loc
                  "affinity variable %s appears in several subscripts of %s" v
                  a.Stmt.aarray)
          a.Stmt.avars;
        Some { a with Stmt.asubs }
  in
  { da with Stmt.affinity; loop = in_par ctx (check_do ctx ~loc) da.Stmt.loop }

(* ------------------------------------------------------------------ *)

let analyse_routine ?(allow_formal_dists = false) (r : Decl.routine) =
  let consts, cerrs = fold_consts r in
  let ctx =
    {
      r;
      syms = Hashtbl.create 64;
      errs = List.rev cerrs;
      allow_formal_dists;
      in_par = false;
    }
  in
  build_symtab ctx consts;
  (* substitute parameters throughout the body, then check *)
  let body =
    List.map
      (fun s -> check_stmt ctx (Stmt.map_exprs (subst_consts consts) s))
      r.Decl.rbody
  in
  let routine = { r with Decl.rbody = body } in
  if ctx.errs = [] then Ok { routine; syms = ctx.syms }
  else
    Error
      (List.rev_map
         (fun (loc, m) -> Printf.sprintf "%s: %s" (Loc.to_string loc) m)
         ctx.errs)

(* a name defined twice in one file: each later definition, located, with
   the first one's location *)
let duplicate_routines (f : Decl.file) =
  let first = Hashtbl.create 16 in
  List.filter_map
    (fun (r : Decl.routine) ->
      match Hashtbl.find_opt first r.Decl.rname with
      | Some (r0 : Decl.routine) ->
          Some
            (Printf.sprintf "%s: routine %s defined twice in one file (first at %s)"
               (Loc.to_string r.Decl.rloc) r.Decl.rname
               (Loc.to_string r0.Decl.rloc))
      | None ->
          Hashtbl.replace first r.Decl.rname r;
          None)
    f.Decl.routines

let analyse_file ?(allow_formal_dists = false) (f : Decl.file) =
  let results = List.map (analyse_routine ~allow_formal_dists) f.Decl.routines in
  let errs =
    duplicate_routines f
    @ List.concat_map (function Error es -> es | Ok _ -> []) results
  in
  if errs = [] then
    Ok (List.map (function Ok e -> e | Error _ -> assert false) results)
  else Error errs

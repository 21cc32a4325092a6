open Ddsm_ir
module K = Ddsm_dist.Kind
module Sema = Ddsm_sema.Sema

type st = { ctx : Tctx.t; flags : Flags.t }

let myp = Expr.Var "myp$"
let np = Expr.Var "np$"
let int n = Expr.Int n
let add a b = Expr.Bin (Expr.Add, a, b)
let sub a b = Expr.Bin (Expr.Sub, a, b)
let mul a b = Expr.Bin (Expr.Mul, a, b)
let imax a b = Expr.Intrin ("max", [ a; b ])
let imin a b = Expr.Intrin ("min", [ a; b ])
let assign ?loc v e = Stmt.mk ?loc (Stmt.Assign (Stmt.LVar v, Expr.simplify e))

let mk_do ?loc ~var ~lo ~hi ?step body =
  Stmt.mk ?loc
    (Stmt.Do
       {
         Stmt.var;
         lo = Expr.simplify lo;
         hi = Expr.simplify hi;
         step;
         body;
       })

(* the trip count max(0, (hi - lo + k) / k) of [do v = lo, hi, k] *)
let trip_count ~lo ~hi ~k =
  imax (int 0) (Expr.Idiv (Expr.Hw, add (sub hi lo) (int k), int k))

(* worker [my]'s share of that loop, split into chunks of [chunk]
   iterations: [lo + my*chunk*k, min(hi, lo + ((my+1)*chunk - 1)*k)] *)
let my_range ~lo ~hi ~k ~my ~chunk =
  ( add lo (mul (mul my chunk) (int k)),
    imin hi (add lo (mul (sub (mul (add my (int 1)) chunk) (int 1)) (int k))) )

(* the iterations v of [lo, hi] whose element s*v + n lies in block
   [owner] of size [b]: max(lo, (owner*b - n) / s rounded up) and
   min(hi, ((owner+1)*b - 1 - n) / s rounded down) *)
let portion ~lo ~hi ~owner ~b ~n ~s =
  let first = sub (mul owner b) (int n)
  and last = sub (mul (add owner (int 1)) b) (int (n + 1)) in
  if s = 1 then (imax lo first, imin hi last)
  else
    ( imax lo (Address.cdiv_e first (int s)),
      imin hi (Expr.Idiv (Expr.Hw, last, int s)) )

let is_array st name = Sema.find_array (Tctx.env st.ctx) name <> None

let const_step (d : Stmt.do_) =
  match d.Stmt.step with None -> Some 1 | Some e -> Expr.const_int e

(* ------------------------------------------------------------------ *)
(* Leaf rewriting: reshaped references -> Table 1 address arithmetic *)

let rewrite_expr st binds e =
  Expr.map
    (function
      | Expr.Ref (name, subs) as r -> (
          match Tctx.reshaped st.ctx name with
          | Some a ->
              Expr.AbsLoad (a.Tctx.ty, Expr.simplify (Address.address a binds ~subs))
          | None -> r)
      | other -> other)
    e

(* ------------------------------------------------------------------ *)
(* Candidate analysis for tiling *)

type cand = {
  c_arr : Tctx.arr;
  c_dim : int;
  mutable c_ns : int list;  (** normalized offsets c - lower seen *)
  mutable c_count : int;
}

let collect_refs body =
  let acc = ref [] in
  let note name subs = acc := (name, subs) :: !acc in
  let scan_expr e =
    Expr.iter
      (function Expr.Ref (a, subs) -> note a subs | _ -> ())
      e
  in
  (* every statement scans its whole subtree's expressions, so a
     reference nested d loops deep is noted d+1 times; the counts that
     pick the tiling candidate depend on that *)
  Stmt.fold
    (fun () t ->
      (match t.Stmt.s with
      | Stmt.Assign (Stmt.LRef (a, subs), _) -> note a subs
      | _ -> ());
      Stmt.iter_exprs scan_expr t)
    () body;
  !acc

let find_candidates st binds ~var body =
  let tbl : (string * int, cand) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (name, subs) ->
      match Tctx.reshaped st.ctx name with
      | None -> ()
      (* a redistributable array's block boundaries are not compile-time
         facts, so it can neither drive nor share a tiled schedule *)
      | Some a when a.Tctx.dynamic -> ()
      | Some a ->
          List.iteri
            (fun dim s ->
              if
                dim < Array.length a.Tctx.kinds
                && a.Tctx.kinds.(dim) = K.Block
                && not (List.mem_assoc (a.Tctx.group, dim) binds)
              then
                match Expr.affine_in var (Expr.simplify s) with
                | Some (1, c) ->
                    let n = c - a.Tctx.lowers.(dim) in
                    let key = (a.Tctx.group, dim) in
                    let cd =
                      match Hashtbl.find_opt tbl key with
                      | Some cd -> cd
                      | None ->
                          let cd = { c_arr = a; c_dim = dim; c_ns = []; c_count = 0 } in
                          Hashtbl.replace tbl key cd;
                          cd
                    in
                    cd.c_count <- cd.c_count + 1;
                    if not (List.mem n cd.c_ns) then cd.c_ns <- n :: cd.c_ns
                | _ -> ())
            subs)
    (collect_refs body);
  Hashtbl.fold (fun _ cd acc -> cd :: acc) tbl []

(* Two candidates share partition boundaries when they have the same group,
   or when both arrays have exactly one distributed dimension (so P = all
   processors for both) and the dimensions have equal constant extents. *)
let single_dist (a : Tctx.arr) =
  Array.length (Array.of_list (List.filter K.is_distributed (Array.to_list a.Tctx.kinds))) = 1

let coincide p q =
  (p.c_arr.Tctx.group = q.c_arr.Tctx.group && p.c_dim = q.c_dim)
  || (single_dist p.c_arr && single_dist q.c_arr
     &&
     match (p.c_arr.Tctx.extents, q.c_arr.Tctx.extents) with
     | Some pe, Some qe -> pe.(p.c_dim) = qe.(q.c_dim)
     | _ -> false)

(* ------------------------------------------------------------------ *)
(* Main recursion *)

let rec xform_body st binds stmts = List.concat_map (xform_stmt st binds) stmts

and xform_stmt st binds (t : Stmt.t) : Stmt.t list =
  let loc = t.Stmt.loc in
  let rw = rewrite_expr st binds in
  match t.Stmt.s with
  | Stmt.Do d -> xform_do st binds loc d
  | Stmt.Doacross da -> schedule st binds loc da
  | Stmt.If (c, th, el) ->
      [
        {
          t with
          Stmt.s = Stmt.If (rw c, xform_body st binds th, xform_body st binds el);
        };
      ]
  | Stmt.Assign (Stmt.LVar x, e) -> [ { t with Stmt.s = Stmt.Assign (Stmt.LVar x, rw e) } ]
  | Stmt.Assign (Stmt.LRef (a, subs), e) -> (
      match Tctx.reshaped st.ctx a with
      | Some arr ->
          let subs' = List.map rw subs in
          [
            Stmt.mk ~loc
              (Stmt.AbsStore
                 ( arr.Tctx.ty,
                   Expr.simplify (Address.address arr binds ~subs:subs'),
                   rw e ));
          ]
      | None ->
          [ { t with Stmt.s = Stmt.Assign (Stmt.LRef (a, List.map rw subs), rw e) } ])
  | Stmt.AbsStore (ty, aexp, v) ->
      [ { t with Stmt.s = Stmt.AbsStore (ty, rw aexp, rw v) } ]
  | Stmt.Call (n, args) ->
      let args' =
        List.map
          (fun arg ->
            match arg with
            | Expr.Var v when is_array st v -> arg
            | Expr.Ref (a, subs) when is_array st a ->
                Expr.Ref (a, List.map rw subs)
            | e -> rw e)
          args
      in
      [ { t with Stmt.s = Stmt.Call (n, args') } ]
  | Stmt.Print es ->
      [
        {
          t with
          Stmt.s = Stmt.Print (List.map (function Expr.Str _ as s -> s | e -> rw e) es);
        };
      ]
  | Stmt.Redistribute _ | Stmt.Continue | Stmt.Return | Stmt.Barrier -> [ t ]
  | Stmt.Gather g ->
      (* inspector bounds/subscripts are pure scalar expressions over
         non-reshaped data by construction; rewrite is a no-op apart from
         constant folding *)
      [
        {
          t with
          Stmt.s =
            Stmt.Gather
              {
                g with
                Stmt.g_dims =
                  List.map (fun (v, lo, hi) -> (v, rw lo, rw hi)) g.Stmt.g_dims;
                g_isubs = List.map rw g.Stmt.g_isubs;
              };
        };
      ]
  | Stmt.Par p ->
      [ { t with Stmt.s = Stmt.Par { Stmt.pbody = xform_body st binds p.Stmt.pbody } } ]

(* --- serial loops: maybe tile over a reshaped array's portions (§7.1) --- *)

and xform_do st binds loc (d : Stmt.do_) =
  (* an inner loop reusing a bound variable shadows the binding *)
  let binds = List.filter (fun (_, b) -> b.Address.bvar <> d.Stmt.var) binds in
  let rw = rewrite_expr st binds in
  let descend () =
    [
      Stmt.mk ~loc
        (Stmt.Do
           {
             d with
             Stmt.lo = rw d.Stmt.lo;
             hi = rw d.Stmt.hi;
             step = Option.map rw d.Stmt.step;
             body = xform_body st binds d.Stmt.body;
           });
    ]
  in
  if not st.flags.Flags.tile then descend ()
  else if const_step d <> Some 1 then descend ()
  else
    match find_candidates st binds ~var:d.Stmt.var d.Stmt.body with
    | [] -> (
        match try_skew st binds loc d with
        | Some stmts -> stmts
        | None -> descend ())
    | cands ->
        let primary =
          List.fold_left (fun best c -> if c.c_count > best.c_count then c else best)
            (List.hd cands) (List.tl cands)
        in
        let bound = List.filter (fun c -> coincide primary c) cands in
        tile st binds loc d ~primary ~bound

(* §7.1 loop skewing: references like [A(i + c*k)] with a loop-invariant,
   symbolic offset are not affine in [i], so tiling cannot fire. Skew the
   loop by the most common such offset e — iterate i' = i + e and rewrite
   the matching subscripts to plain [i'] (other uses of i become i' - e) —
   "which enables subsequent tiling and peeling". *)
and try_skew st binds loc (d : Stmt.do_) : Stmt.t list option =
  if not st.flags.Flags.skew then None
  else begin
    let v = d.Stmt.var in
    (* decompose [sub] as [v + e] with [v] occurring exactly once in the
       additive top-level structure; returns the symbolic offset e *)
    let rec additive_offset (sub : Expr.t) : Expr.t option =
      match sub with
      | Expr.Var x when x = v -> Some (Expr.Int 0)
      | Expr.Bin (Expr.Add, a, b) -> (
          let va = List.mem v (Expr.free_vars a)
          and vb = List.mem v (Expr.free_vars b) in
          match (va, vb) with
          | true, false ->
              Option.map (fun ea -> Expr.simplify (Expr.Bin (Expr.Add, ea, b))) (additive_offset a)
          | false, true ->
              Option.map (fun eb -> Expr.simplify (Expr.Bin (Expr.Add, a, eb))) (additive_offset b)
          | _ -> None)
      | Expr.Bin (Expr.Sub, a, b) when not (List.mem v (Expr.free_vars b)) ->
          Option.map (fun ea -> Expr.simplify (Expr.Bin (Expr.Sub, ea, b))) (additive_offset a)
      | _ -> None
    in
    let killed = v :: Stmt.assigned_vars d.Stmt.body in
    let invariant e =
      (not (List.mem v (Expr.free_vars e)))
      && (not
            (Expr.exists
               (function
                 | Expr.Ref _ | Expr.AbsLoad _ | Expr.Str _ -> true
                 | _ -> false)
               e))
      && List.for_all (fun x -> not (List.mem x killed)) (Expr.free_vars e)
    in
    (* census of invariant additive offsets in reshaped-array subscripts *)
    let tbl : (Expr.t, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (name, subs) ->
        if Tctx.reshaped st.ctx name <> None then
          List.iter
            (fun sub ->
              let sub = Expr.simplify sub in
              if List.mem v (Expr.free_vars sub) && Expr.affine_in v sub = None
              then
                match additive_offset sub with
                | Some e when (not (Expr.is_const e)) && invariant e ->
                    Hashtbl.replace tbl e
                      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl e))
                | _ -> ())
            subs)
      (collect_refs d.Stmt.body);
    let best =
      Hashtbl.fold
        (fun e c acc ->
          match acc with Some (_, c') when c' >= c -> acc | _ -> Some (e, c))
        tbl None
    in
    match best with
    | None -> None
    | Some (e, _) ->
        let off = Tctx.fresh st.ctx "skew" in
        let v' = Tctx.fresh st.ctx "si" in
        (* rewrite matching subscripts to the skewed variable, then shift
           all remaining uses of v *)
        let rewrite_sub sub =
          let s = Expr.simplify sub in
          if List.mem v (Expr.free_vars s) && Expr.affine_in v s = None then
            match additive_offset s with
            | Some e' when Expr.equal e' e -> Expr.Var v'
            | _ -> sub
          else sub
        in
        let rewrite_refs =
          Expr.map (fun ex ->
              match ex with
              | Expr.Ref (name, subs) when Tctx.reshaped st.ctx name <> None ->
                  Expr.Ref (name, List.map rewrite_sub subs)
              | other -> other)
        in
        (* stored-to reshaped targets (LRef) carry their subscripts outside
           any Ref node, so rewrite them explicitly *)
        let rec fix_stores (t : Stmt.t) =
          match t.Stmt.s with
          | Stmt.Assign (Stmt.LRef (a, subs), rhs)
            when Tctx.reshaped st.ctx a <> None ->
              { t with Stmt.s = Stmt.Assign (Stmt.LRef (a, List.map rewrite_sub subs), rhs) }
          (* stores in a nested c$doacross stay as written; the
             substitution of v below keeps them correct *)
          | Stmt.Doacross _ -> t
          | _ -> Stmt.map_bodies (List.map fix_stores) t
        in
        let body =
          List.map
            (fun s -> Stmt.map_exprs rewrite_refs (fix_stores s))
            d.Stmt.body
        in
        let body =
          List.map
            (Stmt.map_exprs
               (Expr.subst_var v (sub (Expr.Var v') (Expr.Var off))))
            body
        in
        let pre = assign off e in
        let d' =
          {
            d with
            Stmt.var = v';
            lo = add d.Stmt.lo (Expr.Var off);
            hi = add d.Stmt.hi (Expr.Var off);
            body;
          }
        in
        Some (pre :: xform_do st binds loc d')
  end

(* Evaluate a bound expression into a temp unless it is already trivial. *)
and atomize st binds hint e =
  let e = rewrite_expr st binds (Expr.simplify e) in
  match e with
  | Expr.Int _ | Expr.Var _ -> (e, [])
  | _ ->
      let tv = Tctx.fresh st.ctx hint in
      (Expr.Var tv, [ assign tv e ])

and tile st binds loc (d : Stmt.do_) ~primary ~bound =
  let a = primary.c_arr and dim = primary.c_dim in
  let all_ns = List.concat_map (fun c -> c.c_ns) bound in
  let na = List.fold_left min (List.hd all_ns) all_ns in
  let nmax = List.fold_left max (List.hd all_ns) all_ns in
  let peel = st.flags.Flags.peel in
  let dh = if peel then nmax - na else 0 in
  let bonly = if peel then None else Some na in
  let lo_e, lo_pre = atomize st binds "lo" d.Stmt.lo in
  let hi_e, hi_pre = atomize st binds "hi" d.Stmt.hi in
  let pt = Tctx.fresh st.ctx "ptile" in
  let b = Address.meta_block a ~dim and pr = Address.meta_procs a ~dim in
  let tlo = Tctx.fresh st.ctx "tlo" and thi = Tctx.fresh st.ctx "thi" in
  let binds' =
    List.map
      (fun c ->
        ( (c.c_arr.Tctx.group, c.c_dim),
          { Address.bvar = d.Stmt.var; bowner = Expr.Var pt; bonly_n = bonly } ))
      bound
    @ binds
  in
  let interior = xform_body st binds' d.Stmt.body in
  let prologue =
    (* portion of iterations whose anchor element lies in tile pt *)
    let plo, phi = portion ~lo:lo_e ~hi:hi_e ~owner:(Expr.Var pt) ~b ~n:na ~s:1 in
    [ assign tlo plo; assign thi phi ]
  in
  let loops =
    if dh = 0 then
      [ mk_do ~loc ~var:d.Stmt.var ~lo:(Expr.Var tlo) ~hi:(Expr.Var thi) interior ]
    else begin
      let mid = Tctx.fresh st.ctx "mid" in
      let general = xform_body st binds d.Stmt.body in
      [
        assign mid (sub (Expr.Var thi) (int dh));
        mk_do ~loc ~var:d.Stmt.var ~lo:(Expr.Var tlo) ~hi:(Expr.Var mid) interior;
        (* peeled top iterations keep the general Table 1 addressing *)
        mk_do ~loc ~var:d.Stmt.var
          ~lo:(imax (Expr.Var tlo) (add (Expr.Var mid) (int 1)))
          ~hi:(Expr.Var thi) general;
      ]
    end
  in
  lo_pre @ hi_pre
  @ [
      mk_do ~loc ~var:pt ~lo:(int 0) ~hi:(sub pr (int 1)) (prologue @ loops);
    ]

(* ------------------------------------------------------------------ *)
(* Doacross scheduling (§4.1, Figure 2) *)

and schedule st binds loc (da : Stmt.doacross) : Stmt.t list =
  let nest = Sema.loop_nest_vars da in
  match da.Stmt.affinity with
  | Some aff
    when Tctx.distributed st.ctx aff.Stmt.aarray <> None
         && List.for_all (fun v -> List.mem v aff.Stmt.avars) nest ->
      schedule_affinity st binds loc da nest aff
  | _ -> schedule_simple st binds loc da

and schedule_simple st binds loc (da : Stmt.doacross) =
  match (da.Stmt.sched, Sema.loop_nest_vars da, da.Stmt.loop.Stmt.body) with
  | Stmt.Simple, _ :: _ :: _, [ { Stmt.s = Stmt.Do inner; _ } ] ->
      schedule_simple_nest2 st binds loc da.Stmt.loop inner
  | _ -> schedule_simple_flat st binds loc da

(* A [nest] clause without (full) affinity: partition the 2-D iteration
   space over a runtime processor grid p1 x p2 with p1 = min(np, outer trip
   count) — a single-dimension split would cap parallelism at the outer trip
   count. Workers beyond p1*p2 (when p1 does not divide np) idle. *)
and schedule_simple_nest2 st binds loc (outer : Stmt.do_) (inner : Stmt.do_) =
  let k1 = Option.value ~default:1 (const_step outer) in
  let k2 = Option.value ~default:1 (const_step inner) in
  let lo1, lo1_pre = atomize st binds "lo" outer.Stmt.lo in
  let hi1, hi1_pre = atomize st binds "hi" outer.Stmt.hi in
  let f n = Tctx.fresh st.ctx n in
  let cnt1 = f "cnt" and p1 = f "pgrid" and p2 = f "pgrid" in
  let my1 = f "my" and my2 = f "my" in
  let chunk1 = f "chunk" and mylo1 = f "mylo" and myhi1 = f "myhi" in
  let cnt2 = f "cnt" and chunk2 = f "chunk" in
  let mylo2 = f "mylo" and myhi2 = f "myhi" in
  let v x = Expr.Var x in
  let pre =
    let mylo1_e, myhi1_e = my_range ~lo:lo1 ~hi:hi1 ~k:k1 ~my:(v my1) ~chunk:(v chunk1) in
    [
      assign cnt1 (trip_count ~lo:lo1 ~hi:hi1 ~k:k1);
      assign p1 (imax (int 1) (Expr.Intrin ("min", [ np; v cnt1 ])));
      assign p2 (Expr.Idiv (Expr.Hw, np, v p1));
      assign my1 (Expr.Imod (Expr.Hw, myp, v p1));
      assign my2 (Expr.Idiv (Expr.Hw, myp, v p1));
      assign chunk1 (Address.cdiv_e (v cnt1) (v p1));
      assign mylo1 mylo1_e;
      assign myhi1 myhi1_e;
    ]
  in
  (* the inner loop's partition is computed per outer iteration (its bounds
     may depend on the outer variable) *)
  let lo2 = rewrite_expr st binds inner.Stmt.lo in
  let hi2 = rewrite_expr st binds inner.Stmt.hi in
  let inner_pre =
    let mylo2_e, myhi2_e = my_range ~lo:lo2 ~hi:hi2 ~k:k2 ~my:(v my2) ~chunk:(v chunk2) in
    [
      assign cnt2 (trip_count ~lo:lo2 ~hi:hi2 ~k:k2);
      assign chunk2 (Address.cdiv_e (v cnt2) (v p2));
      assign mylo2 mylo2_e;
      assign myhi2 myhi2_e;
    ]
  in
  let inner' =
    { inner with Stmt.lo = v mylo2; hi = v myhi2 }
  in
  let outer' =
    {
      outer with
      Stmt.lo = v mylo1;
      hi = v myhi1;
      body = inner_pre @ xform_do st binds loc inner';
    }
  in
  let guard = Expr.Rel (Expr.Lt, v my2, v p2) in
  [
    Stmt.mk ~loc
      (Stmt.Par
         {
           Stmt.pbody =
             lo1_pre @ hi1_pre @ pre
             @ [
                 Stmt.mk ~loc
                   (Stmt.If (guard, [ Stmt.mk ~loc (Stmt.Do outer') ], []));
               ];
         });
  ]

and schedule_simple_flat st binds loc (da : Stmt.doacross) =
  let d = da.Stmt.loop in
  let k = Option.value ~default:1 (const_step d) in
  let lo_e, lo_pre = atomize st binds "lo" d.Stmt.lo in
  let hi_e, hi_pre = atomize st binds "hi" d.Stmt.hi in
  let body_stmts =
    match da.Stmt.sched with
    | Stmt.Interleave m when m <= 1 ->
        let d' =
          {
            d with
            Stmt.lo = add lo_e (mul myp (int k));
            hi = hi_e;
            step = Some (mul np (int k));
          }
        in
        xform_do st binds loc d'
    | Stmt.Interleave m ->
        (* chunks of m iterations dealt round-robin *)
        let start = Tctx.fresh st.ctx "chunkst" in
        let inner =
          {
            d with
            Stmt.lo = Expr.Var start;
            hi = imin hi_e (add (Expr.Var start) (int ((m - 1) * k)));
            step = d.Stmt.step;
          }
        in
        [
          mk_do ~loc ~var:start
            ~lo:(add lo_e (mul myp (int (m * k))))
            ~hi:hi_e
            ~step:(mul np (int (m * k)))
            (xform_do st binds loc inner);
        ]
    | Stmt.Simple ->
        let cnt = Tctx.fresh st.ctx "cnt" in
        let chunk = Tctx.fresh st.ctx "chunk" in
        let mylo = Tctx.fresh st.ctx "mylo" in
        let myhi = Tctx.fresh st.ctx "myhi" in
        let mylo_e, myhi_e =
          my_range ~lo:lo_e ~hi:hi_e ~k ~my:myp ~chunk:(Expr.Var chunk)
        in
        let pre =
          [
            assign cnt (trip_count ~lo:lo_e ~hi:hi_e ~k);
            assign chunk (Address.cdiv_e (Expr.Var cnt) np);
            assign mylo mylo_e;
            assign myhi myhi_e;
          ]
        in
        let d' =
          { d with Stmt.lo = Expr.Var mylo; hi = Expr.Var myhi }
        in
        pre @ xform_do st binds loc d'
  in
  [ Stmt.mk ~loc (Stmt.Par { Stmt.pbody = lo_pre @ hi_pre @ body_stmts }) ]

and schedule_affinity st binds loc (da : Stmt.doacross) nest aff =
  let a = Option.get (Tctx.distributed st.ctx aff.Stmt.aarray) in
  let dynamic = a.Tctx.dynamic in
  let ndims = Array.length a.Tctx.kinds in
  (* grid decomposition of the worker id, first dimension fastest. For a
     redistributable array the set of distributed dimensions is a run-time
     property, so decompose over every dimension through the descriptor
     (star dimensions have procs = 1 and contribute nothing). *)
  let rem = Tctx.fresh st.ctx "rem" in
  let owners = Array.make ndims (int 0) in
  let decomp = ref [ assign rem myp ] in
  let dist_dims =
    if dynamic then List.init ndims Fun.id
    else
      List.filter (fun d -> K.is_distributed a.Tctx.kinds.(d)) (List.init ndims Fun.id)
  in
  List.iteri
    (fun i d ->
      let o = Tctx.fresh st.ctx "own" in
      owners.(d) <- Expr.Var o;
      let p = Address.meta_procs a ~dim:d in
      if i = List.length dist_dims - 1 && not dynamic then
        decomp := assign o (Expr.Var rem) :: !decomp
      else begin
        decomp := assign o (Expr.Imod (Expr.Hw, Expr.Var rem, p)) :: !decomp;
        decomp := assign rem (Expr.Idiv (Expr.Hw, Expr.Var rem, p)) :: !decomp
      end)
    dist_dims;
  let decomp = List.rev !decomp in
  (* map each nest variable to its affinity dimension and (s, c) *)
  let dim_of_var v =
    let rec go d = function
      | [] -> None
      | s :: rest -> (
          match Expr.affine_in v (Expr.simplify s) with
          | Some (sc, c) when List.mem v (Expr.free_vars s) -> Some (d, sc, c)
          | _ -> go (d + 1) rest)
    in
    go 0 aff.Stmt.asubs
  in
  (* build the scheduled loops, outermost nest variable first *)
  let rec build vars binds (d : Stmt.do_) : Stmt.t list =
    match vars with
    | [] -> xform_body st binds d.Stmt.body
    | v :: rest ->
        let inner binds' =
          match rest with
          | [] -> xform_body st binds' d.Stmt.body
          | _ -> (
              match d.Stmt.body with
              | [ { Stmt.s = Stmt.Do d2; _ } ] -> build rest binds' d2
              | _ ->
                  (* sema enforces perfect nests; defensive fallback *)
                  xform_body st binds' d.Stmt.body)
        in
        (match dim_of_var v with
        | None -> xform_do st binds loc d (* unconstrained: should not happen *)
        | Some (dv, s, c) -> schedule_one st binds loc d ~arr:a ~owner:owners.(dv) ~dv ~s ~c ~inner)
  in
  let loops = build nest binds da.Stmt.loop in
  (* distributed dimensions not named by any affinity variable are pinned
     by their (constant) subscript: only workers whose owner component
     matches that coordinate's owner execute the nest *)
  let guards =
    List.filteri
      (fun d _ -> dynamic || K.is_distributed a.Tctx.kinds.(d))
      (List.mapi (fun d sub -> (d, sub)) aff.Stmt.asubs)
    |> List.filter_map (fun (d, sub) ->
           let has_avar =
             List.exists
               (fun v -> List.mem v (Expr.free_vars sub))
               aff.Stmt.avars
           in
           if has_avar then None
           else
             match Expr.const_int (Expr.simplify sub) with
             | Some c ->
                 let i0 = int (c - a.Tctx.lowers.(d)) in
                 Some (Expr.Rel (Expr.Eq, owners.(d), Address.owner_expr a ~dim:d ~i0))
             | None -> None)
  in
  let body =
    List.fold_left
      (fun acc g -> [ Stmt.mk ~loc (Stmt.If (g, acc, [])) ])
      loops guards
  in
  (* a redistributable array's onto-grid may have been shrunk below the
     worker count by a procs(n) clause; the generic decomposition then
     wraps the surplus worker ids back onto the grid, so those workers
     (left with a non-zero remainder) must sit the nest out rather than
     duplicate the low-id workers' iterations *)
  let body =
    if dynamic then
      [
        Stmt.mk ~loc
          (Stmt.If (Expr.Rel (Expr.Eq, Expr.Var rem, int 0), body, []));
      ]
    else body
  in
  [ Stmt.mk ~loc (Stmt.Par { Stmt.pbody = decomp @ body }) ]

(* Schedule one parallel loop [d] whose iterations follow dimension [dv] of
   [arr] with affinity subscript [s*v + c]; [owner] is this worker's owner
   index along that dimension; [inner] produces the loop body given the
   bindings in effect. *)
and schedule_one st binds loc (d : Stmt.do_) ~arr ~owner ~dv ~s ~c ~inner =
  let lower = arr.Tctx.lowers.(dv) in
  let n_aff = c - lower in
  let k = Option.value ~default:1 (const_step d) in
  let lo_e, lo_pre = atomize st binds "lo" d.Stmt.lo in
  let hi_e, hi_pre = atomize st binds "hi" d.Stmt.hi in
  let pr = Address.meta_procs arr ~dim:dv in
  let guarded () =
    (* fallback: every worker scans the range, executing owned iterations;
       for a redistributable array [Address.owner_expr] is the kind-generic
       owner (i0 / b) mod P *)
    let i0 = sub (add (mul (int s) (Expr.Var d.Stmt.var)) (int c)) (int lower) in
    let guard = Expr.Rel (Expr.Eq, Address.owner_expr arr ~dim:dv ~i0, owner) in
    [
      mk_do ~loc ~var:d.Stmt.var ~lo:lo_e ~hi:hi_e ?step:d.Stmt.step
        [ Stmt.mk ~loc (Stmt.If (guard, inner binds, [])) ];
    ]
  in
  lo_pre @ hi_pre
  @
  if arr.Tctx.dynamic then
    (* redistributable array: the distribution kind is only known at run
       time, so schedule with the kind-generic guarded form *)
    guarded ()
  else if s = 0 then
    (* every iteration touches the same element: its owner runs the loop *)
    let i0 = int (c - lower) in
    let guard = Expr.Rel (Expr.Eq, Address.owner_expr arr ~dim:dv ~i0, owner) in
    [
      Stmt.mk ~loc
        (Stmt.If
           ( guard,
             [ mk_do ~loc ~var:d.Stmt.var ~lo:lo_e ~hi:hi_e ?step:d.Stmt.step (inner binds) ],
             [] ));
    ]
  else
    match arr.Tctx.kinds.(dv) with
    | K.Star ->
        (* a '*' dimension has a single owner, so the affinity constraint is
           vacuous: every worker runs the full range (its other nest
           variables remain constrained) *)
        [
          mk_do ~loc ~var:d.Stmt.var ~lo:lo_e ~hi:hi_e ?step:d.Stmt.step
            (inner binds);
        ]
    | K.Block ->
        let b = Address.meta_block arr ~dim:dv in
        let tlo = Tctx.fresh st.ctx "tlo" and thi = Tctx.fresh st.ctx "thi" in
        let plo, phi = portion ~lo:lo_e ~hi:hi_e ~owner ~b ~n:n_aff ~s in
        let align =
          if k = 1 then []
          else
            [
              assign tlo
                (add lo_e
                   (mul (Address.cdiv_e (sub (Expr.Var tlo) lo_e) (int k)) (int k)));
            ]
        in
        let pre = (assign tlo plo :: align) @ [ assign thi phi ] in
        (* strength-reduced bindings inside the scheduled loop (§7.1) *)
        if st.flags.Flags.tile && s = 1 then begin
          let cands = find_candidates st binds ~var:d.Stmt.var d.Stmt.body in
          let self = { c_arr = arr; c_dim = dv; c_ns = [ n_aff ]; c_count = 1 } in
          let bound = List.filter (fun cd -> coincide self cd) cands in
          let all_ns = n_aff :: List.concat_map (fun cd -> cd.c_ns) bound in
          let nmin = List.fold_left min n_aff all_ns
          and nmax = List.fold_left max n_aff all_ns in
          let peel = st.flags.Flags.peel && k = 1 in
          let dl = if peel then n_aff - nmin else 0
          and dh = if peel then nmax - n_aff else 0 in
          let bonly = if peel then None else Some n_aff in
          let mkbind cd =
            ( (cd.c_arr.Tctx.group, cd.c_dim),
              { Address.bvar = d.Stmt.var; bowner = owner; bonly_n = bonly } )
          in
          let self_bind =
            ( (arr.Tctx.group, dv),
              { Address.bvar = d.Stmt.var; bowner = owner; bonly_n = bonly } )
          in
          let binds' =
            self_bind :: List.map mkbind bound
            @ List.filter (fun (key, _) -> key <> (arr.Tctx.group, dv)) binds
          in
          let binds' =
            (* dedupe keys *)
            List.fold_left
              (fun acc ((key, _) as kv) ->
                if List.mem_assoc key acc then acc else acc @ [ kv ])
              [] binds'
          in
          if dl = 0 && dh = 0 then
            pre
            @ [
                mk_do ~loc ~var:d.Stmt.var ~lo:(Expr.Var tlo) ~hi:(Expr.Var thi)
                  ?step:d.Stmt.step (inner binds');
              ]
          else begin
            let ilo = Tctx.fresh st.ctx "ilo" and ihi = Tctx.fresh st.ctx "ihi" in
            pre
            @ [
                assign ilo (add (Expr.Var tlo) (int dl));
                assign ihi (sub (Expr.Var thi) (int dh));
                (* peel low *)
                mk_do ~loc ~var:d.Stmt.var ~lo:(Expr.Var tlo)
                  ~hi:(imin (Expr.Var thi) (sub (Expr.Var ilo) (int 1)))
                  (inner binds);
                (* interior *)
                mk_do ~loc ~var:d.Stmt.var ~lo:(Expr.Var ilo) ~hi:(Expr.Var ihi)
                  (inner binds');
                (* peel high *)
                mk_do ~loc ~var:d.Stmt.var
                  ~lo:(imax (Expr.Var ilo) (imax (Expr.Var tlo) (add (Expr.Var ihi) (int 1))))
                  ~hi:(Expr.Var thi) (inner binds);
              ]
          end
        end
        else
          pre
          @ [
              mk_do ~loc ~var:d.Stmt.var ~lo:(Expr.Var tlo) ~hi:(Expr.Var thi)
                ?step:d.Stmt.step (inner binds);
            ]
    | K.Cyclic when s = 1 && k = 1 ->
        (* Figure 2: do i = LB + ((p - LB - c) mod P), UB, P *)
        let tlo = Tctx.fresh st.ctx "tlo" in
        [
          assign tlo
            (add lo_e (Expr.Imod (Expr.Hw, sub (sub owner (int n_aff)) lo_e, pr)));
          mk_do ~loc ~var:d.Stmt.var ~lo:(Expr.Var tlo) ~hi:hi_e ~step:pr
            (inner binds);
        ]
    | K.Cyclic -> guarded ()
    | K.Cyclic_k ck when s = 1 && k = 1 && arr.Tctx.extents <> None ->
        (* triply nested form: outer loop over this worker's chunks *)
        let extent = (Option.get arr.Tctx.extents).(dv) in
        let nchunks = (extent + ck - 1) / ck in
        let ch = Tctx.fresh st.ctx "chunk" in
        let clo, chi =
          portion ~lo:lo_e ~hi:hi_e ~owner:(Expr.Var ch) ~b:(int ck) ~n:n_aff
            ~s:1
        in
        [
          mk_do ~loc ~var:ch ~lo:owner ~hi:(int (nchunks - 1)) ~step:pr
            [ mk_do ~loc ~var:d.Stmt.var ~lo:clo ~hi:chi (inner binds) ];
        ]
    | K.Cyclic_k _ -> guarded ()

(* ------------------------------------------------------------------ *)

let routine ctx flags (r : Decl.routine) =
  let st = { ctx; flags } in
  { r with Decl.rbody = xform_body st [] r.Decl.rbody }

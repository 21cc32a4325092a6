open Ddsm_ir
open Spec
module K = Ddsm_dist.Kind

(* ------------------------------------------------------------------ *)
(* Traversals *)

let rec map_exp f e =
  match e with
  | ILit _ | RLit _ | EVar _ -> f e
  | ERead _ -> f e
  | EBin (op, a, b) -> f (EBin (op, map_exp f a, map_exp f b))
  | ERel (op, a, b) -> f (ERel (op, map_exp f a, map_exp f b))
  | ENeg a -> f (ENeg (map_exp f a))
  | EIntrin (n, args) -> f (EIntrin (n, List.map (map_exp f) args))

let rec stmt_arrays st =
  match st with
  | SAssignScal (_, e) -> exp_arrays e
  | SLoop { w; rhs; red; _ } ->
      (w :: exp_arrays rhs)
      @ (match red with Some (_, ra) -> [ ra ] | None -> [])
  | SIf (c, th, el) ->
      exp_arrays c
      @ List.concat_map stmt_arrays th
      @ List.concat_map stmt_arrays el
  | SCallWhole (_, a, e) | SCallElem (_, a, _, e) -> a :: exp_arrays e
  | SRedist (a, _, _, _) -> [ a ]
  | SBarrier -> []
  | SPrintSum a -> [ a ]

let rec stmt_calls st =
  match st with
  | SCallWhole (s, _, _) | SCallElem (s, _, _, _) -> [ s ]
  | SIf (_, th, el) ->
      List.concat_map stmt_calls th @ List.concat_map stmt_calls el
  | _ -> []

(* indirect subscripts in an expression: each one drags in an index
   array, its fill and (in the engine) a gather schedule, so they carry
   weight and the shrinker offers a direct-subscript replacement *)
let rec exp_sinds e =
  match e with
  | ILit _ | RLit _ | EVar _ -> 0
  | ERead (_, subs) ->
      List.length (List.filter (function SInd _ -> true | _ -> false) subs)
  | EBin (_, a, b) | ERel (_, a, b) -> exp_sinds a + exp_sinds b
  | ENeg a -> exp_sinds a
  | EIntrin (_, args) -> List.fold_left (fun n a -> n + exp_sinds a) 0 args

let rec stmt_weight st =
  match st with
  | SIf (_, th, el) ->
      1
      + List.fold_left (fun a s -> a + stmt_weight s) 0 th
      + List.fold_left (fun a s -> a + stmt_weight s) 0 el
  | SLoop { par; red; rhs; _ } ->
      2 + exp_sinds rhs
      + (match par with
        | None -> 0
        | Some p ->
            1
            + (if p.p_nest then 1 else 0)
            + (if p.p_aff then 1 else 0)
            + (if p.p_barrier then 1 else 0)
            + (match p.p_onto with Some _ -> 1 | None -> 0)
            + (match p.p_sched with Stmt.Simple -> 0 | _ -> 1))
      + (match red with Some _ -> 1 | None -> 0)
  | _ -> 1

let dist_weight = function
  | None -> 0
  | Some d ->
      1
      + (if d.reshape then 1 else 0)
      + (match d.onto with Some _ -> 1 | None -> 0)
      + List.length (List.filter (fun k -> k <> K.Block) d.kinds)

let weight t =
  List.fold_left (fun a s -> a + stmt_weight s) 0 t.body
  + List.fold_left (fun a ar -> a + ar.ext + dist_weight ar.adist) 0 t.arrays
  + (3 * List.length t.subs)
  + (2 * List.length t.arrays)
  + t.nfiles
  + if t.common_in_sub then 1 else 0

(* ------------------------------------------------------------------ *)
(* Rebuilding helpers: every candidate must stay well-formed *)

(* clamp constant subscripts and element-call windows after extents shrank *)
let reclamp t =
  let ext_of a =
    match List.find_opt (fun ar -> ar.an = a) t.arrays with
    | Some ar -> ar.ext
    | None -> 3
  in
  let clamp_exp e =
    map_exp
      (function
        | ERead (a, subs) ->
            let m = ext_of a in
            ERead
              ( a,
                List.map
                  (function
                    | SConst c -> SConst (max 1 (min c m))
                    | s -> s)
                  subs )
        | e -> e)
      e
  in
  let rec clamp_stmt st =
    match st with
    | SAssignScal (v, e) -> Some (SAssignScal (v, clamp_exp e))
    | SLoop l -> Some (SLoop { l with rhs = clamp_exp l.rhs })
    | SIf (c, th, el) ->
        Some
          (SIf
             ( clamp_exp c,
               List.filter_map clamp_stmt th,
               List.filter_map clamp_stmt el ))
    | SCallElem (s, a, at, e) -> (
        let m = ext_of a in
        match List.find_opt (fun su -> su.sname = s) t.subs with
        | Some { skind = `Elem k; _ } ->
            if k > m then None
            else
              Some
                (SCallElem (s, a, (if at + k - 1 <= m then at else 1),
                            clamp_exp e))
        | _ -> Some (SCallElem (s, a, 1, clamp_exp e)))
    | SCallWhole (s, a, e) -> Some (SCallWhole (s, a, clamp_exp e))
    | SRedist _ | SBarrier | SPrintSum _ -> Some st
  in
  { t with body = List.filter_map clamp_stmt t.body }

let drop_nth xs n = List.filteri (fun i _ -> i <> n) xs

(* replace indirect subscripts with a constant: always in bounds, and
   usually enough to show whether the bug needed the gather machinery *)
let unind rhs =
  map_exp
    (function
      | ERead (a, subs) ->
          ERead (a, List.map (function SInd _ -> SConst 1 | s -> s) subs)
      | e -> e)
    rhs

(* a reduction's rhs reads through the inner loop variable; when the
   reduction is dropped, re-anchor those subscripts *)
let unred rhs =
  map_exp
    (function
      | ERead (a, subs) ->
          ERead
            ( a,
              List.map (function SIn _ -> SConst 1 | s -> s) subs )
      | e -> e)
    rhs

(* ------------------------------------------------------------------ *)
(* Candidate generation, in decreasing order of expected payoff *)

let candidates t =
  let out = ref [] in
  let add c = out := c :: !out in
  (* shrink loop structure: serialise, drop clauses, drop reductions *)
  List.iteri
    (fun i st ->
      match st with
      | SLoop l ->
          let set st' = { t with body = List.mapi (fun j s -> if j = i then st' else s) t.body } in
          (match l.red with
          | Some _ -> add (set (SLoop { l with red = None; rhs = unred l.rhs }))
          | None -> ());
          if exp_sinds l.rhs > 0 then
            add (set (SLoop { l with rhs = unind l.rhs }));
          (match l.par with
          | Some p ->
              add (set (SLoop { l with par = None }));
              if p.p_barrier then
                add (set (SLoop { l with par = Some { p with p_barrier = false } }));
              if p.p_aff then
                add (set (SLoop { l with par = Some { p with p_aff = false } }));
              if p.p_onto <> None then
                add (set (SLoop { l with par = Some { p with p_onto = None } }));
              if p.p_sched <> Stmt.Simple then
                add (set (SLoop { l with par = Some { p with p_sched = Stmt.Simple } }));
              if p.p_nest then
                add (set (SLoop { l with par = Some { p with p_nest = false } }))
          | None -> ())
      | SIf (_, th, el) ->
          let splice ss =
            { t with body = List.concat (List.mapi (fun j s -> if j = i then ss else [ s ]) t.body) }
          in
          add (splice th);
          if el <> [] then add (splice el)
      | _ -> ())
    t.body;
  (* halve every extent together (order between arrays is preserved, so
     cross-array reads stay in bounds) *)
  if List.exists (fun a -> a.ext > 3) t.arrays then
    add
      (reclamp
         { t with arrays = List.map (fun a -> { a with ext = max 3 (a.ext / 2) }) t.arrays });
  (* simplify distributions *)
  List.iteri
    (fun i a ->
      let set a' = { t with arrays = List.mapi (fun j x -> if j = i then a' else x) t.arrays } in
      match a.adist with
      | Some d ->
          if d.reshape then add (set { a with adist = Some { d with reshape = false } });
          if d.onto <> None then add (set { a with adist = Some { d with onto = None } });
          if List.exists (fun k -> k <> K.Block) d.kinds then
            add (set { a with adist = Some { d with kinds = List.map (fun _ -> K.Block) d.kinds } });
          (* dropping the distribution invalidates redistributes of it *)
          let t' = set { a with adist = None } in
          add
            {
              t' with
              body =
                List.filter
                  (function SRedist (x, _, _, _) -> x <> a.an | _ -> true)
                  t'.body;
            }
      | None -> ())
    t.arrays;
  (* drop whole statements (latest first: inits come first and are
     load-bearing for everything after them) *)
  if List.length t.body > 1 then
    for i = List.length t.body - 1 downto 0 do
      add { t with body = drop_nth t.body i }
    done;
  (* drop a subroutine and its call sites *)
  List.iteri
    (fun i s ->
      add
        {
          t with
          subs = drop_nth t.subs i;
          body =
            List.filter
              (fun st -> not (List.mem s.sname (stmt_calls st)))
              t.body;
        })
    t.subs;
  (* drop an array and everything touching it *)
  if List.length t.arrays > 1 then
    List.iteri
      (fun i a ->
        add
          {
            t with
            arrays = drop_nth t.arrays i;
            body =
              List.filter
                (fun st -> not (List.mem a.an (stmt_arrays st)))
                t.body;
          })
      t.arrays;
  (* structural simplifications *)
  if t.common_in_sub then add { t with common_in_sub = false };
  if t.nfiles > 1 then add { t with nfiles = 1 };
  if List.exists (fun a -> a.acommon <> None) t.arrays then
    add
      {
        t with
        arrays = List.map (fun a -> { a with acommon = None }) t.arrays;
        common_in_sub = false;
      };
  List.rev !out

(* predicate evaluations one minimization may spend *)
let attempt_limit = 300

let minimize ~still_fails t0 =
  let attempts = ref 0 in
  let rec go t =
    let rec try_ = function
      | [] -> t
      | c :: rest ->
          if !attempts >= attempt_limit then t
          else if weight c < weight t then begin
            incr attempts;
            if still_fails c then go c else try_ rest
          end
          else try_ rest
    in
    try_ (candidates t)
  in
  go t0

open Ddsm_ir

(* Expressions appearing at block level in a statement: its own
   expressions, not those of nested bodies (each nested body is its own
   block). A [Gather] rectangle and a [Doacross] header are never
   rewritten. *)
let rewritable (t : Stmt.t) =
  match t.Stmt.s with Stmt.Gather _ | Stmt.Doacross _ -> false | _ -> true

let shallow_exprs t = if rewritable t then Stmt.own_exprs t else []

let shallow_map f t =
  if rewritable t then Stmt.map_own_exprs f t else { t with Stmt.s = t.Stmt.s }

let replace_in c tv e =
  Expr.map (fun x -> if Expr.equal x c then Expr.Var tv else x) e

(* Node flags, computed bottom-up. A candidate is [expensive] (a descriptor
   load, base-pointer load or div/mod somewhere inside) and not [impure]
   (no memory read, string or gather base). A [nan] literal makes the node
   unequal to itself under [Expr.equal], so it can never be counted. *)
let expensive = 1
let impure = 2
let nan = 4

(* Walks [e] and conses its candidate subterms, in [Expr.iter] pre-order,
   onto [tail] as [(node, size, flags)]. Children are walked right to left
   so that the list comes out in pre-order without appends. *)
let rec walk e tail =
  let own, kids =
    match e with
    | Expr.Int _ | Expr.Var _ -> (0, [])
    | Expr.Real f -> ((if Float.is_nan f then nan else 0), [])
    | Expr.Str _ | Expr.GatherBase _ -> (impure, [])
    | Expr.Meta _ -> (expensive, [])
    | Expr.Ref (_, subs) -> (impure, subs)
    | Expr.Intrin (_, args) -> (0, args)
    | Expr.Bin (_, a, b) | Expr.Rel (_, a, b) | Expr.Log (_, a, b) -> (0, [ a; b ])
    | Expr.Idiv (_, a, b) | Expr.Imod (_, a, b) -> (expensive, [ a; b ])
    | Expr.Not a | Expr.Neg a -> (0, [ a ])
    | Expr.BaseOf (_, a) -> (expensive, [ a ])
    | Expr.AbsLoad (_, a) -> (impure, [ a ])
  in
  let flags, size, tail =
    List.fold_right
      (fun k (fl, sz, tl) ->
        let f, s, tl = walk k tl in
        (fl lor f, sz + s, tl))
      kids (own, 1, tail)
  in
  let tail =
    if flags land (expensive lor impure) = expensive then (e, size, flags) :: tail
    else tail
  in
  (flags, size, tail)

(* A candidate's record for one round. [node] is its latest occurrence in
   enumeration order, and the temp's definition reuses that very node: the
   marshalled image keeps physical sharing, so which equal node is reused
   is part of the output. [occ] holds one statement position per
   occurrence, latest first. *)
type cand = {
  mutable node : Expr.t;
  size : int;
  countable : bool;
  mutable occ : int list;
  mutable nocc : int;
}

(* A block under CSE, with each statement's kill sets: the scalars it
   assigns (nested bodies included) and the arrays it may redistribute.
   Rewriting a statement's block-level expressions changes neither set, so
   they are computed once per block and carried across rounds. *)
type block = {
  stmts : Stmt.t array;
  kills : string list array;
  relaid : string list array;
}

(* Ascending statement positions of each key of [sets]. *)
let positions sets =
  let tbl = Hashtbl.create 16 in
  for i = Array.length sets - 1 downto 0 do
    List.iter
      (fun k ->
        match Hashtbl.find_opt tbl k with
        | Some (j :: _) when j = i -> ()
        | Some l -> Hashtbl.replace tbl k (i :: l)
        | None -> Hashtbl.replace tbl k [ i ])
      sets.(i)
  done;
  let out = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter (fun k l -> Hashtbl.replace out k (Array.of_list l)) tbl;
  out

(* index of the first element of ascending [a] that is >= [p] *)
let first_geq a p =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < p then lo := mid + 1 else hi := mid
  done;
  !lo

(* One CSE round over a block: find the best candidate with >= 2 available
   occurrences in a kill-free segment; introduce a temp. Returns None when
   nothing profitable remains. *)
let round ctx (b : block) : block option =
  let n = Array.length b.stmts in
  (* enumerate candidates in Expr.iter pre-order, recording positions *)
  let cands : (Expr.t, cand) Hashtbl.t = Hashtbl.create 32 in
  Array.iteri
    (fun i t ->
      let found =
        List.fold_right (fun e tl -> let _, _, tl = walk e tl in tl) (shallow_exprs t) []
      in
      List.iter
        (fun (x, size, flags) ->
          match Hashtbl.find_opt cands x with
          | Some cd ->
              cd.node <- x;
              cd.occ <- i :: cd.occ;
              cd.nocc <- cd.nocc + 1
          | None ->
              Hashtbl.add cands x
                { node = x; size; countable = flags land nan = 0; occ = [ i ]; nocc = 1 })
        found)
    b.stmts;
  let var_kills = lazy (positions b.kills) and arr_kills = lazy (positions b.relaid) in
  let best = ref None in
  let beats cnt sz =
    match !best with
    | Some (bcd, _, _, bcnt) -> cnt > bcnt || (cnt = bcnt && sz > bcd.size)
    | None -> true
  in
  Hashtbl.iter
    (fun _ cd ->
      if cd.countable && cd.nocc >= 2 && beats cd.nocc cd.size then begin
        (* kill positions of the candidate: assignments to its free vars,
           and c$redistribute of an array it consults ([Meta]/[BaseOf]),
           whose descriptor values change at that point. A kill at [k]
           ends the segment after statement [k]. *)
        let keyed tbl keys =
          List.filter_map (fun k -> Hashtbl.find_opt (Lazy.force tbl) k) keys
        in
        let kps =
          keyed var_kills (Expr.free_vars cd.node)
          @ keyed arr_kills (Hoist.meta_arrays cd.node)
        in
        let next_kill p =
          List.fold_left
            (fun m a ->
              let j = first_geq a p in
              if j < Array.length a then min m a.(j) else m)
            max_int kps
        in
        let prev_kill p =
          List.fold_left
            (fun m a ->
              let j = first_geq a p in
              if j > 0 then max m a.(j - 1) else m)
            (-1) kps
        in
        let consider s0 nk cnt =
          if cnt >= 2 && beats cnt cd.size then
            let s1 = if nk = max_int then n else nk + 1 in
            best := Some (cd, s0, s1, cnt)
        in
        let rec segments s0 nk cnt = function
          | [] -> consider s0 nk cnt
          | p :: rest when p <= nk -> segments s0 nk (cnt + 1) rest
          | p :: rest ->
              consider s0 nk cnt;
              segments (prev_kill p + 1) (next_kill p) 1 rest
        in
        match List.rev cd.occ with
        | p :: rest -> segments (prev_kill p + 1) (next_kill p) 1 rest
        | [] -> ()
      end)
    cands;
  match !best with
  | None -> None
  | Some (cd, s0, s1, _) ->
      let c = cd.node in
      let tv = Tctx.fresh ctx "cse" in
      (* every statement of the segment is rebuilt, as [Expr.map] does,
         so the IR's physical sharing (and hence the marshalled image)
         does not depend on where the occurrences are *)
      let stmts =
        Array.mapi
          (fun i t -> if i >= s0 && i < s1 then shallow_map (replace_in c tv) t else t)
          b.stmts
      in
      let t0 = b.stmts.(s0) in
      let def = Stmt.mk ~loc:t0.Stmt.loc (Stmt.Assign (Stmt.LVar tv, c)) in
      let insert a x =
        Array.concat [ Array.sub a 0 s0; [| x |]; Array.sub a s0 (n - s0) ]
      in
      Some
        {
          stmts = insert stmts def;
          kills = insert b.kills [ tv ];
          relaid = insert b.relaid [];
        }

let rec cse_block ctx block =
  let stmts = Array.of_list block in
  let b =
    {
      stmts;
      kills = Array.map (fun t -> Stmt.assigned_vars [ t ]) stmts;
      relaid = Array.map (fun t -> Stmt.arrays_redistributed [ t ]) stmts;
    }
  in
  let rec fix b iters =
    if iters > 50 then b
    else match round ctx b with None -> b | Some b -> fix b (iters + 1)
  in
  List.map (Stmt.map_bodies (cse_block ctx)) (Array.to_list (fix b 0).stmts)

let routine ctx (r : Decl.routine) = { r with Decl.rbody = cse_block ctx r.Decl.rbody }

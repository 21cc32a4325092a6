type lhs = LVar of string | LRef of string * Expr.t list

type sched = Simple | Interleave of int

type t = { s : kind; loc : Loc.t }

and kind =
  | Assign of lhs * Expr.t
  | AbsStore of Types.ty * Expr.t * Expr.t
  | Do of do_
  | If of Expr.t * t list * t list
  | Call of string * Expr.t list
  | Doacross of doacross
  | Redistribute of redist
  | Continue
  | Return
  | Print of Expr.t list
  | Barrier
  | Par of par
  | Gather of gather

and par = { pbody : t list }

and gather = {
  g_id : int;  (* site id, unique within the routine *)
  g_target : string;  (* rank-1 array whose elements are gathered *)
  g_index : string;  (* integer index array driving the accesses *)
  g_scale : int;  (* target subscript = g_scale * index(...) + g_off *)
  g_off : int;
  g_dims : (string * Expr.t * Expr.t) list;
      (* rectangle (var, lo, hi) per nest dim, outermost first, step 1 *)
  g_isubs : Expr.t list;
      (* subscripts into the index array: pure scalar expressions over the
         nest variables and loop-invariant scalars *)
}

and do_ = {
  var : string;
  lo : Expr.t;
  hi : Expr.t;
  step : Expr.t option;
  body : t list;
}

and doacross = {
  locals : string list;
  shareds : string list;
  affinity : aff option;
  sched : sched;
  d_onto : int list option;
  nest_vars : string list;
  loop : do_;
}

and aff = { avars : string list; aarray : string; asubs : Expr.t list }

and redist = {
  rarray : string;
  rkinds : Ddsm_dist.Kind.t list;
  ronto : int list option;
  rprocs : int option;
      (* resize the onto-grid: redistribute over this many processors
         (clamped to the job size at runtime) instead of all of them *)
}

let mk ?(loc = Loc.none) s = { s; loc }

(* pre-order; allocates nothing of its own, since every pass folds over
   the IR, some of them once per enclosing loop *)
let rec fold f acc = function
  | [] -> acc
  | t :: ts ->
      let acc = f acc t in
      let acc =
        match t.s with
        | Do d -> fold f acc d.body
        | If (_, th, el) -> fold f (fold f acc th) el
        | Doacross da -> fold f acc da.loop.body
        | Par p -> fold f acc p.pbody
        | Assign _ | AbsStore _ | Call _ | Redistribute _ | Continue | Return
        | Print _ | Barrier | Gather _ ->
            acc
      in
      fold f acc ts

(* In [map_bodies] and [map_own_exprs], constructor arguments and record
   fields are evaluated right to left: [f] sees an [If]'s else branch
   before its then branch, and a loop's step before its bounds. Passes
   that draw fresh names inside [f] depend on this order, so the shapes
   below must not be reordered. *)
let map_bodies f t =
  match t.s with
  | Do d -> { t with s = Do { d with body = f d.body } }
  | If (c, th, el) -> { t with s = If (c, f th, f el) }
  | Doacross da ->
      { t with s = Doacross { da with loop = { da.loop with body = f da.loop.body } } }
  | Par p -> { t with s = Par { pbody = f p.pbody } }
  | Assign _ | AbsStore _ | Call _ | Redistribute _ | Continue | Return
  | Print _ | Barrier | Gather _ ->
      t

let own_exprs t =
  let loop d = d.lo :: d.hi :: Option.to_list d.step in
  match t.s with
  | Assign (LVar _, e) -> [ e ]
  | Assign (LRef (_, subs), e) -> subs @ [ e ]
  | AbsStore (_, addr, v) -> [ addr; v ]
  | Do d -> loop d
  | If (c, _, _) -> [ c ]
  | Call (_, es) | Print es -> es
  | Doacross da ->
      (match da.affinity with Some a -> a.asubs | None -> []) @ loop da.loop
  | Gather g ->
      List.concat_map (fun (_, lo, hi) -> [ lo; hi ]) g.g_dims @ g.g_isubs
  | Redistribute _ | Continue | Return | Barrier | Par _ -> []

let map_loop f d = { d with lo = f d.lo; hi = f d.hi; step = Option.map f d.step }

let map_own_exprs f t =
  let s =
    match t.s with
    | Assign (LVar x, e) -> Assign (LVar x, f e)
    | Assign (LRef (a, subs), e) -> Assign (LRef (a, List.map f subs), f e)
    | AbsStore (ty, addr, v) -> AbsStore (ty, f addr, f v)
    | Do d -> Do (map_loop f d)
    | If (c, th, el) -> If (f c, th, el)
    | Call (n, args) -> Call (n, List.map f args)
    | Print es -> Print (List.map f es)
    | Doacross da ->
        Doacross
          {
            da with
            affinity =
              Option.map (fun a -> { a with asubs = List.map f a.asubs }) da.affinity;
            loop = map_loop f da.loop;
          }
    | Gather g ->
        Gather
          {
            g with
            g_dims = List.map (fun (v, lo, hi) -> (v, f lo, f hi)) g.g_dims;
            g_isubs = List.map f g.g_isubs;
          }
    | Redistribute _ | Continue | Return | Barrier | Par _ -> t.s
  in
  { t with s }

let rec map_exprs f t =
  map_own_exprs f (map_bodies (List.map (map_exprs f)) t)

let iter_exprs f t = fold (fun () t -> List.iter f (own_exprs t)) () [ t ]

(* first-occurrence order, no duplicates *)
let collect pick ts =
  List.rev
    (fold
       (fun acc t ->
         match pick t with
         | Some x when not (List.mem x acc) -> x :: acc
         | _ -> acc)
       [] ts)

let assigned_vars ts =
  collect
    (fun t ->
      match t.s with
      | Assign (LVar x, _) | Do { var = x; _ } | Doacross { loop = { var = x; _ }; _ } ->
          Some x
      | _ -> None)
    ts

let arrays_written =
  collect (fun t -> match t.s with Assign (LRef (a, _), _) -> Some a | _ -> None)

let arrays_redistributed =
  collect (fun t -> match t.s with Redistribute r -> Some r.rarray | _ -> None)

let calls_made = collect (fun t -> match t.s with Call (n, _) -> Some n | _ -> None)

let size ts = fold (fun n _ -> n + 1) 0 ts

let rec pp ppf t =
  match t.s with
  | Assign (LVar x, e) -> Format.fprintf ppf "@[<h>%s = %a@]" x Expr.pp e
  | Assign (LRef (a, subs), e) ->
      Format.fprintf ppf "@[<h>%s(%a) = %a@]" a
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Expr.pp)
        subs Expr.pp e
  | AbsStore (ty, addr, v) ->
      Format.fprintf ppf "@[<h>store.%s[%a] = %a@]"
        (match ty with Types.Tint -> "i" | Types.Treal -> "r")
        Expr.pp addr Expr.pp v
  | Do d -> pp_do ppf d
  | If (c, th, []) ->
      Format.fprintf ppf "@[<v 2>if (%a) then@ %a@]@ endif" Expr.pp c pp_body th
  | If (c, th, el) ->
      Format.fprintf ppf "@[<v 2>if (%a) then@ %a@]@ @[<v 2>else@ %a@]@ endif"
        Expr.pp c pp_body th pp_body el
  | Call (n, args) ->
      Format.fprintf ppf "@[<h>call %s(%a)@]" n
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Expr.pp)
        args
  | Doacross da ->
      Format.fprintf ppf "@[<v>c$doacross%s%s%a@ %a@]"
        (match da.locals with
        | [] -> ""
        | l -> " local(" ^ String.concat "," l ^ ")")
        (match da.nest_vars with
        | [] -> ""
        | l -> " nest(" ^ String.concat "," l ^ ")")
        (fun ppf -> function
          | None -> ()
          | Some a ->
              Format.fprintf ppf " affinity(%s) = data(%s(%a))"
                (String.concat "," a.avars) a.aarray
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                   Expr.pp)
                a.asubs)
        da.affinity pp_do da.loop
  | Redistribute r ->
      Format.fprintf ppf "c$redistribute %s(%a)%a" r.rarray
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Ddsm_dist.Kind.pp)
        r.rkinds
        (fun ppf -> function
          | None -> ()
          | Some p -> Format.fprintf ppf " procs(%d)" p)
        r.rprocs
  | Continue -> Format.pp_print_string ppf "continue"
  | Return -> Format.pp_print_string ppf "return"
  | Print es ->
      Format.fprintf ppf "@[<h>print %a@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Expr.pp)
        es
  | Barrier -> Format.pp_print_string ppf "barrier"
  | Par p ->
      Format.fprintf ppf "@[<v 2>parallel@ %a@]@ end parallel" pp_body p.pbody
  | Gather g ->
      Format.fprintf ppf "@[<h>gather#%d %s <- %s(%d*%s(%a)+%d) for %a@]"
        g.g_id g.g_target g.g_target g.g_scale g.g_index
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Expr.pp)
        g.g_isubs g.g_off
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           (fun ppf (v, lo, hi) ->
             Format.fprintf ppf "%s=%a..%a" v Expr.pp lo Expr.pp hi))
        g.g_dims

and pp_do ppf d =
  Format.fprintf ppf "@[<v 2>do %s = %a, %a%a@ %a@]@ enddo" d.var Expr.pp d.lo
    Expr.pp d.hi
    (fun ppf -> function
      | None -> ()
      | Some s -> Format.fprintf ppf ", %a" Expr.pp s)
    d.step pp_body d.body

and pp_body ppf ts =
  Format.pp_print_list ~pp_sep:Format.pp_print_space pp ppf ts

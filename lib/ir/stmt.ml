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

let rec map_exprs f t =
  let fe = f in
  let fb = List.map (map_exprs f) in
  let s =
    match t.s with
    | Assign (LVar x, e) -> Assign (LVar x, fe e)
    | Assign (LRef (a, subs), e) -> Assign (LRef (a, List.map fe subs), fe e)
    | AbsStore (ty, addr, v) -> AbsStore (ty, fe addr, fe v)
    | Do d -> Do (map_do f d)
    | If (c, th, el) -> If (fe c, fb th, fb el)
    | Call (n, args) -> Call (n, List.map fe args)
    | Doacross da ->
        Doacross
          {
            da with
            affinity =
              Option.map
                (fun a -> { a with asubs = List.map fe a.asubs })
                da.affinity;
            loop = map_do f da.loop;
          }
    | Redistribute _ | Continue | Return | Barrier -> t.s
    | Par p -> Par { pbody = fb p.pbody }
    | Print es -> Print (List.map fe es)
    | Gather g ->
        Gather
          {
            g with
            g_dims = List.map (fun (v, lo, hi) -> (v, fe lo, fe hi)) g.g_dims;
            g_isubs = List.map fe g.g_isubs;
          }
  in
  { t with s }

and map_do f d =
  {
    d with
    lo = f d.lo;
    hi = f d.hi;
    step = Option.map f d.step;
    body = List.map (map_exprs f) d.body;
  }

let rec iter_exprs f t =
  let fb = List.iter (iter_exprs f) in
  match t.s with
  | Assign (LVar _, e) -> f e
  | Assign (LRef (_, subs), e) ->
      List.iter f subs;
      f e
  | AbsStore (_, addr, v) ->
      f addr;
      f v
  | Do d -> iter_do f d
  | If (c, th, el) ->
      f c;
      fb th;
      fb el
  | Call (_, args) -> List.iter f args
  | Doacross da ->
      Option.iter (fun a -> List.iter f a.asubs) da.affinity;
      iter_do f da.loop
  | Redistribute _ | Continue | Return | Barrier -> ()
  | Par p -> fb p.pbody
  | Print es -> List.iter f es
  | Gather g ->
      List.iter
        (fun (_, lo, hi) ->
          f lo;
          f hi)
        g.g_dims;
      List.iter f g.g_isubs

and iter_do f d =
  f d.lo;
  f d.hi;
  Option.iter f d.step;
  List.iter (iter_exprs f) d.body

let rec collect_assigned acc ts =
  List.fold_left
    (fun acc t ->
      match t.s with
      | Assign (LVar x, _) -> if List.mem x acc then acc else x :: acc
      | Assign (LRef _, _) | AbsStore _ -> acc
      | Do d ->
          let acc = if List.mem d.var acc then acc else d.var :: acc in
          collect_assigned acc d.body
      | If (_, th, el) -> collect_assigned (collect_assigned acc th) el
      | Doacross da ->
          let acc =
            if List.mem da.loop.var acc then acc else da.loop.var :: acc
          in
          collect_assigned acc da.loop.body
      | Par p -> collect_assigned acc p.pbody
      | _ -> acc)
    acc ts

let assigned_vars ts = List.rev (collect_assigned [] ts)

let rec collect_written acc ts =
  List.fold_left
    (fun acc t ->
      match t.s with
      | Assign (LRef (a, _), _) -> if List.mem a acc then acc else a :: acc
      | Do d -> collect_written acc d.body
      | If (_, th, el) -> collect_written (collect_written acc th) el
      | Doacross da -> collect_written acc da.loop.body
      | Par p -> collect_written acc p.pbody
      | _ -> acc)
    acc ts

let arrays_written ts = List.rev (collect_written [] ts)

let rec collect_calls acc ts =
  List.fold_left
    (fun acc t ->
      match t.s with
      | Call (n, _) -> if List.mem n acc then acc else n :: acc
      | Do d -> collect_calls acc d.body
      | If (_, th, el) -> collect_calls (collect_calls acc th) el
      | Doacross da -> collect_calls acc da.loop.body
      | Par p -> collect_calls acc p.pbody
      | _ -> acc)
    acc ts

let calls_made ts = List.rev (collect_calls [] ts)

let rec size ts =
  List.fold_left
    (fun acc t ->
      acc + 1
      +
      match t.s with
      | Do d -> size d.body
      | If (_, th, el) -> size th + size el
      | Doacross da -> size da.loop.body
      | Par p -> size p.pbody
      | _ -> 0)
    0 ts

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

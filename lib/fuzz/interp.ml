open Ddsm_ir
module Sema = Ddsm_sema.Sema
module Intrinsics = Ddsm_sema.Intrinsics
module K = Ddsm_dist.Kind
module Rt = Ddsm_runtime.Rt

type failure = F_timeout | F_user of string | F_unsupported of string

type image = { arrays : (string * int64 array) list; prints : string list }

exception Timeout
exception Uerror of string
exception Unsup of string
exception Return_local

let uerror fmt = Printf.ksprintf (fun m -> raise (Uerror m)) fmt
let unsup fmt = Printf.ksprintf (fun m -> raise (Unsup m)) fmt

(* Two storage planes per array, like the simulated heap: integer and real
   values live side by side and a type-punned access reads the other
   plane's zeros rather than reinterpreting bits. *)
type store = { si : int array; sf : float array }

(* Reshape pedigree of a view, for mirroring the §6 argument checks. *)
type rinfo = { r_ext : int array; r_kind0 : K.t }

type view = {
  vstore : store;
  vbase : int;  (* zero-based word offset of element (lowers) *)
  vlow : int array;
  vext : int array;
  vstr : int array;
  vresh : rinfo option;
}

type value = VI of int | VF of float

type decl_rec = {
  d_ty : Types.ty;
  d_low : int array;
  d_ext : int array;
  d_store : store;
}

type glob = {
  routines : (string * Sema.env) list;
  stores : (string, decl_rec) Hashtbl.t;
  prints : string list ref;
  mutable steps : int;
}

type frame = {
  env : Sema.env;
  rname : string;
  mutable scalars : (string, value) Hashtbl.t;
  views : (string, view) Hashtbl.t;
}

(* statement executions before a run is a timeout *)
let max_steps = 2_000_000

let step g =
  g.steps <- g.steps + 1;
  if g.steps > max_steps then raise Timeout

(* ------------------------------------------------------------------ *)
(* Typing: the type Compilec.compile gives each node, recomputed top-down
   here, with the scalar table playing the role of the slot table (a
   scalar's type is fixed by its first materialisation) *)

let promote a b =
  if a = Types.Treal || b = Types.Treal then Types.Treal else Types.Tint

let sema_scalar_ty fr x =
  match Sema.find_sym fr.env x with
  | Some (Sema.SScalar (ty, _)) -> Some ty
  | Some (Sema.SConst (Expr.Int _)) -> Some Types.Tint
  | Some (Sema.SConst _) -> Some Types.Treal
  | _ -> None

let array_elem_ty fr a =
  match Sema.find_array fr.env a with
  | Some ai -> ai.Sema.ai_ty
  | None -> Types.Treal

let rec ety fr (e : Expr.t) : Types.ty =
  match e with
  | Expr.Int _ -> Types.Tint
  | Expr.Real _ | Expr.Str _ -> Types.Treal
  | Expr.Var x -> (
      match Hashtbl.find_opt fr.scalars x with
      | Some (VI _) -> Types.Tint
      | Some (VF _) -> Types.Treal
      | None -> (
          match sema_scalar_ty fr x with
          | Some ty -> ty
          | None -> (
              match Sema.find_sym fr.env x with
              | Some (Sema.SArray ai) -> ai.Sema.ai_ty
              | _ -> Types.Tint)))
  | Expr.Ref (a, _) -> array_elem_ty fr a
  | Expr.Bin (_, a, b) -> promote (ety fr a) (ety fr b)
  | Expr.Rel _ | Expr.Log _ | Expr.Not _ -> Types.Tint
  | Expr.Neg a -> ety fr a
  | Expr.Intrin (n, args) -> (
      match Intrinsics.lookup n with
      | Some { Intrinsics.result = `Int; _ } -> Types.Tint
      | Some { Intrinsics.result = `Real; _ } -> Types.Treal
      | Some { Intrinsics.result = `Same; _ } ->
          List.fold_left (fun acc a -> promote acc (ety fr a)) Types.Tint args
      | None -> Types.Tint)
  | Expr.Idiv _ | Expr.Imod _ | Expr.Meta _ | Expr.BaseOf _
  | Expr.GatherBase _ ->
      Types.Tint
  | Expr.AbsLoad (ty, _) -> ty

(* scalar access; creation type defaults mirror Compilec.slot_for *)
let vget fr x ~ty =
  match Hashtbl.find_opt fr.scalars x with
  | Some v -> v
  | None ->
      let ty = match sema_scalar_ty fr x with Some t -> t | None -> ty in
      let v = match ty with Types.Tint -> VI 0 | Types.Treal -> VF 0.0 in
      Hashtbl.replace fr.scalars x v;
      v

let view_of fr a =
  match Hashtbl.find_opt fr.views a with
  | Some v -> v
  | None -> uerror "array %s has no storage in routine %s" a fr.rname

(* zero-based word offset of A(subs); always bounds-checked, matching
   [bounds:true] plain views and the reshaped-address oracle *)
let elem_offset a (v : view) subs_vals =
  let off = ref v.vbase in
  List.iteri
    (fun i s ->
      let x = s - v.vlow.(i) in
      if x < 0 || x >= v.vext.(i) then
        uerror "array %s: subscript %d out of bounds in dim %d" a s (i + 1);
      off := !off + (x * v.vstr.(i)))
    subs_vals;
  !off

(* ------------------------------------------------------------------ *)
(* Expression evaluation: mirrors Compilec.compile and its to_int/to_float
   coercions *)

let rec eval_i g fr (e : Expr.t) : int =
  if ety fr e = Types.Treal then int_of_float (eval_f g fr e)
  else
    match e with
    | Expr.Int n -> n
    | Expr.Var x -> (
        match vget fr x ~ty:Types.Tint with
        | VI n -> n
        | VF x -> int_of_float x)
    | Expr.Neg a -> -eval_i g fr a
    | Expr.Bin (op, a, b) -> (
        match op with
        | Expr.Add -> eval_i g fr a + eval_i g fr b
        | Expr.Sub -> eval_i g fr a - eval_i g fr b
        | Expr.Mul -> eval_i g fr a * eval_i g fr b
        | Expr.Div ->
            let n = eval_i g fr a and d = eval_i g fr b in
            if d = 0 then uerror "integer division by zero";
            n / d
        | Expr.Pow ->
            let base = eval_i g fr a and ex = eval_i g fr b in
            if ex < 0 then uerror "negative integer exponent";
            let rec pw acc n = if n = 0 then acc else pw (acc * base) (n - 1) in
            pw 1 ex)
    | Expr.Rel (op, a, b) ->
        let c =
          if ety fr a = Types.Treal || ety fr b = Types.Treal then
            let x = eval_f g fr a and y = eval_f g fr b in
            match op with
            | Expr.Lt -> x < y
            | Expr.Le -> x <= y
            | Expr.Gt -> x > y
            | Expr.Ge -> x >= y
            | Expr.Eq -> x = y
            | Expr.Ne -> x <> y
          else
            let x = eval_i g fr a and y = eval_i g fr b in
            match op with
            | Expr.Lt -> x < y
            | Expr.Le -> x <= y
            | Expr.Gt -> x > y
            | Expr.Ge -> x >= y
            | Expr.Eq -> x = y
            | Expr.Ne -> x <> y
        in
        if c then 1 else 0
    | Expr.Log (op, a, b) -> (
        match op with
        | Expr.And ->
            if eval_i g fr a <> 0 && eval_i g fr b <> 0 then 1 else 0
        | Expr.Or -> if eval_i g fr a <> 0 || eval_i g fr b <> 0 then 1 else 0)
    | Expr.Not a -> if eval_i g fr a = 0 then 1 else 0
    | Expr.Ref (a, subs) -> (
        let v = view_of fr a in
        let vals = List.map (eval_i g fr) subs in
        let off = elem_offset a v vals in
        match array_elem_ty fr a with
        | Types.Tint -> v.vstore.si.(off)
        | Types.Treal -> assert false (* Treal fast path above *))
    | Expr.Intrin (nm, args) -> intrin_i g fr nm args
    | Expr.Idiv _ | Expr.Imod _ | Expr.Meta _ | Expr.BaseOf _
    | Expr.AbsLoad _ | Expr.GatherBase _ ->
        unsup "compiler-internal expression form in reference interpreter"
    | Expr.Real _ | Expr.Str _ -> assert false

and eval_f g fr (e : Expr.t) : float =
  match e with
  | Expr.Real x -> x
  | Expr.Var x when ety fr e = Types.Treal -> (
      match vget fr x ~ty:Types.Treal with
      | VF x -> x
      | VI n -> float_of_int n)
  | Expr.Neg a when ety fr e = Types.Treal -> -.eval_f g fr a
  | Expr.Bin (op, a, b) when ety fr e = Types.Treal -> (
      match op with
      | Expr.Add -> eval_f g fr a +. eval_f g fr b
      | Expr.Sub -> eval_f g fr a -. eval_f g fr b
      | Expr.Mul -> eval_f g fr a *. eval_f g fr b
      | Expr.Div -> eval_f g fr a /. eval_f g fr b
      | Expr.Pow -> Float.pow (eval_f g fr a) (eval_f g fr b))
  | Expr.Ref (a, subs) when array_elem_ty fr a = Types.Treal ->
      let v = view_of fr a in
      let vals = List.map (eval_i g fr) subs in
      let off = elem_offset a v vals in
      v.vstore.sf.(off)
  | Expr.Intrin (nm, args) when ety fr e = Types.Treal -> intrin_f g fr nm args
  | Expr.Str _ -> unsup "string literal outside a print statement"
  | e -> float_of_int (eval_i g fr e)

and intrin_i g fr nm args : int =
  match nm with
  | "mod" -> (
      match args with
      | [ a; b ] ->
          let d = eval_i g fr b in
          if d = 0 then uerror "mod by zero";
          eval_i g fr a mod d
      | _ -> uerror "mod arity")
  | "min" ->
      List.fold_left (fun acc a -> min acc (eval_i g fr a)) max_int args
  | "max" ->
      List.fold_left (fun acc a -> max acc (eval_i g fr a)) min_int args
  | "abs" -> (
      match args with
      | [ a ] -> abs (eval_i g fr a)
      | _ -> uerror "abs arity")
  | "int" | "nint" -> (
      match args with
      | [ a ] ->
          let x = eval_f g fr a in
          if nm = "int" then int_of_float x else int_of_float (Float.round x)
      | _ -> uerror "%s arity" nm)
  | nm when String.length nm > 4 && String.sub nm 0 4 = "dsm_" ->
      unsup "machine-dependent intrinsic %s" nm
  | _ -> uerror "unknown integer intrinsic %s" nm

and intrin_f g fr nm args : float =
  let unary op =
    match args with
    | [ a ] -> op (eval_f g fr a)
    | _ -> uerror "%s arity" nm
  in
  match nm with
  | "sqrt" -> unary sqrt
  | "exp" -> unary exp
  | "log" -> unary log
  | "sin" -> unary sin
  | "cos" -> unary cos
  | "abs" -> unary Float.abs
  | "dble" | "float" -> unary Fun.id
  | "mod" -> (
      match args with
      | [ a; b ] -> Float.rem (eval_f g fr a) (eval_f g fr b)
      | _ -> uerror "mod arity")
  | "min" ->
      List.fold_left (fun acc a -> Float.min acc (eval_f g fr a)) infinity args
  | "max" ->
      List.fold_left
        (fun acc a -> Float.max acc (eval_f g fr a))
        neg_infinity args
  | _ -> float_of_int (intrin_i g fr nm args)

(* ------------------------------------------------------------------ *)
(* Static storage: every non-formal array of every routine, commons
   deduplicated by qualified name with shape-consistency checks — the same
   walk Engine.elaborate makes *)

let qualified (env : Sema.env) name =
  match Sema.find_array env name with
  | Some { Sema.ai_common = Some blk; _ } -> Printf.sprintf "/%s/%s" blk name
  | _ -> Printf.sprintf "%s/%s" env.Sema.routine.Decl.rname name

let elaborate g =
  List.iter
    (fun (_, env) ->
      Hashtbl.iter
        (fun name sym ->
          match sym with
          | Sema.SArray ai when not ai.Sema.ai_formal -> (
              if ai.Sema.ai_equiv_base <> None then
                unsup "equivalenced array %s" name;
              let qname = qualified env name in
              let lowers, extents =
                match ai.Sema.ai_const_shape with
                | Some s -> s
                | None -> uerror "array %s: non-constant shape" name
              in
              match Hashtbl.find_opt g.stores qname with
              | Some d ->
                  if d.d_low <> lowers || d.d_ext <> extents then
                    uerror
                      "common array %s declared with different shapes in \
                       different routines"
                      name
              | None ->
                  let n = max 1 (Array.fold_left ( * ) 1 extents) in
                  Hashtbl.replace g.stores qname
                    {
                      d_ty = ai.Sema.ai_ty;
                      d_low = lowers;
                      d_ext = extents;
                      d_store =
                        { si = Array.make n 0; sf = Array.make n 0.0 };
                    })
          | _ -> ())
        env.Sema.syms)
    g.routines

let column_major_strides extents =
  let st = Array.make (Array.length extents) 1 in
  for i = 1 to Array.length extents - 1 do
    st.(i) <- st.(i - 1) * extents.(i - 1)
  done;
  st

let make_frame g (env : Sema.env) =
  let fr =
    {
      env;
      rname = env.Sema.routine.Decl.rname;
      scalars = Hashtbl.create 16;
      views = Hashtbl.create 8;
    }
  in
  Hashtbl.iter
    (fun name sym ->
      match sym with
      | Sema.SScalar (ty, _) ->
          Hashtbl.replace fr.scalars name
            (match ty with Types.Tint -> VI 0 | Types.Treal -> VF 0.0)
      | Sema.SArray ai when not ai.Sema.ai_formal ->
          let qname = qualified env name in
          let d =
            match Hashtbl.find_opt g.stores qname with
            | Some d -> d
            | None -> uerror "array %s not elaborated" qname
          in
          let vresh =
            match ai.Sema.ai_dist with
            | Some { Decl.dreshape = true; dkinds = k0 :: _; _ } ->
                Some { r_ext = d.d_ext; r_kind0 = k0 }
            | _ -> None
          in
          Hashtbl.replace fr.views name
            {
              vstore = d.d_store;
              vbase = 0;
              vlow = d.d_low;
              vext = d.d_ext;
              vstr = column_major_strides d.d_ext;
              vresh;
            }
      | _ -> ())
    env.Sema.syms;
  fr

(* ------------------------------------------------------------------ *)
(* Argument checks (§6 mirror).  The portion run of an element argument
   depends on the machine's processor grid, so the interpreter only
   accepts windows whose fit is configuration-independent: within one
   cyclic(k) chunk, within an undistributed dimension's remainder, or the
   single element itself.  Anything else is configuration-dependent
   behaviour and the case is reported unsupported. *)

let guaranteed_run (ri : rinfo) lin =
  let total = Array.fold_left ( * ) 1 ri.r_ext in
  if Array.length ri.r_ext <> 1 then 1
  else
    match ri.r_kind0 with
    | K.Star -> total - lin
    | K.Block | K.Cyclic -> 1
    | K.Cyclic_k k -> min (k - (lin mod k)) (total - lin)

(* ------------------------------------------------------------------ *)
(* Statements *)

type aarg =
  | Ai of int
  | Af of float
  | Awhole of view
  | Aelem of store * int * rinfo option

let rec exec_body g fr body = List.iter (exec_stmt g fr) body

and exec_stmt g fr (t : Stmt.t) =
  step g;
  match t.Stmt.s with
  | Stmt.Assign (Stmt.LVar x, e) -> (
      let ty =
        match Hashtbl.find_opt fr.scalars x with
        | Some (VI _) -> Types.Tint
        | Some (VF _) -> Types.Treal
        | None -> (
            match sema_scalar_ty fr x with Some t -> t | None -> ety fr e)
      in
      match ty with
      | Types.Tint -> Hashtbl.replace fr.scalars x (VI (eval_i g fr e))
      | Types.Treal -> Hashtbl.replace fr.scalars x (VF (eval_f g fr e)))
  | Stmt.Assign (Stmt.LRef (a, subs), e) -> (
      let v = view_of fr a in
      match array_elem_ty fr a with
      | Types.Treal ->
          let x = eval_f g fr e in
          let vals = List.map (eval_i g fr) subs in
          v.vstore.sf.(elem_offset a v vals) <- x
      | Types.Tint ->
          (* mirror the engine: a real value stored into an integer
             element is checked (NaN and out-of-range are runtime
             errors); scalar coercions elsewhere stay silent *)
          let x =
            if ety fr e = Types.Treal then
              let r = eval_f g fr e in
              match Rt.int_of_real r with
              | Some i -> i
              | None ->
                  uerror
                    "array %s: cannot store %g into an integer element (%s)" a
                    r
                    (if Float.is_nan r then "NaN" else "out of integer range")
            else eval_i g fr e
          in
          let vals = List.map (eval_i g fr) subs in
          v.vstore.si.(elem_offset a v vals) <- x)
  | Stmt.Do d -> exec_do g fr d
  | Stmt.If (cond, th, el) ->
      if eval_i g fr cond <> 0 then exec_body g fr th else exec_body g fr el
  | Stmt.Call (name, args) -> call g fr name args
  | Stmt.Doacross da ->
      (* serial-equivalent execution: the engine forks per-processor
         workers over private scalar frames and joins, so array effects
         land and the parent's scalars are untouched *)
      let saved = Hashtbl.copy fr.scalars in
      exec_do g fr da.Stmt.loop;
      fr.scalars <- saved
  | Stmt.Redistribute rd -> (
      match Sema.find_array fr.env rd.Stmt.rarray with
      | Some { Sema.ai_dist = Some _; _ } ->
          (* regular arrays migrate pages, reshaped arrays relayout via
             copy-then-install: either way no element value changes *)
          ()
      | _ -> uerror "cannot redistribute undistributed array %s" rd.Stmt.rarray
      )
  | Stmt.Continue -> ()
  | Stmt.Barrier -> ()
  | Stmt.Return -> raise Return_local
  | Stmt.Print items ->
      let parts =
        List.map
          (fun e ->
            match e with
            | Expr.Str s -> s
            | _ -> (
                match ety fr e with
                | Types.Tint -> string_of_int (eval_i g fr e)
                | Types.Treal -> Printf.sprintf "%.10g" (eval_f g fr e)))
          items
      in
      g.prints := String.concat " " parts :: !(g.prints)
  | Stmt.AbsStore _ | Stmt.Par _ | Stmt.Gather _ ->
      unsup "compiler-internal statement form in reference interpreter"

and exec_do g fr (d : Stmt.do_) =
  let lo = eval_i g fr d.Stmt.lo and hi = eval_i g fr d.Stmt.hi in
  let stp =
    match d.Stmt.step with None -> 1 | Some s -> eval_i g fr s
  in
  if stp = 0 then uerror "do %s: zero step" d.Stmt.var;
  let v = ref lo in
  let continue_ () = if stp > 0 then !v <= hi else !v >= hi in
  (match vget fr d.Stmt.var ~ty:Types.Tint with
  | VF _ -> uerror "loop variable %s is not an integer" d.Stmt.var
  | VI _ -> ());
  Hashtbl.replace fr.scalars d.Stmt.var (VI lo);
  while continue_ () do
    step g;
    Hashtbl.replace fr.scalars d.Stmt.var (VI !v);
    exec_body g fr d.Stmt.body;
    (* the loop variable may have been reassigned inside the body; like
       the VM we step the stored value, not the cached one *)
    (match Hashtbl.find fr.scalars d.Stmt.var with
    | VI cur -> v := cur + stp
    | VF _ -> uerror "loop variable %s is not an integer" d.Stmt.var);
    Hashtbl.replace fr.scalars d.Stmt.var (VI !v)
  done

and call g fr name args =
  match List.assoc_opt name g.routines with
  | None -> uerror "call to undefined subroutine %s" name
  | Some cenv ->
      let formals = cenv.Sema.routine.Decl.rparams in
      if List.length formals <> List.length args then
        uerror "call %s: %d arguments for %d formals" name (List.length args)
          (List.length formals);
      (* evaluate actuals in the caller's frame *)
      let argv =
        List.map2
          (fun formal actual ->
            match Sema.find_sym cenv formal with
            | Some (Sema.SArray _) -> (
                match actual with
                | Expr.Var a -> Awhole (view_of fr a)
                | Expr.Ref (a, subs) ->
                    let v = view_of fr a in
                    let vals = List.map (eval_i g fr) subs in
                    Aelem (v.vstore, elem_offset a v vals, v.vresh)
                | _ ->
                    uerror
                      "array argument must be an array name or an array \
                       element")
            | Some (Sema.SScalar (ty, _)) -> (
                match ty with
                | Types.Tint -> Ai (eval_i g fr actual)
                | Types.Treal -> Af (eval_f g fr actual))
            | _ ->
                uerror "call %s: formal %s is not declared in the callee" name
                  formal)
          formals args
      in
      let cfr = make_frame g cenv in
      (* bind scalars first: adjustable array dimensions read them *)
      List.iter2
        (fun formal arg ->
          match (Sema.find_sym cenv formal, arg) with
          | Some (Sema.SScalar (Types.Tint, _)), Ai v ->
              Hashtbl.replace cfr.scalars formal (VI v)
          | Some (Sema.SScalar (Types.Tint, _)), Af v ->
              Hashtbl.replace cfr.scalars formal (VI (int_of_float v))
          | Some (Sema.SScalar (Types.Treal, _)), Af v ->
              Hashtbl.replace cfr.scalars formal (VF v)
          | Some (Sema.SScalar (Types.Treal, _)), Ai v ->
              Hashtbl.replace cfr.scalars formal (VF (float_of_int v))
          | Some (Sema.SScalar _), _ ->
              uerror "%s: argument %s: scalar expected" name formal
          | _ -> ())
        formals argv;
      (* then arrays, evaluating dimension bounds in the callee frame *)
      List.iter2
        (fun formal arg ->
          match Sema.find_sym cenv formal with
          | Some (Sema.SArray ai) -> (
              let lowers =
                Array.of_list (List.map (eval_i g cfr) ai.Sema.ai_los)
              in
              let his =
                Array.of_list (List.map (eval_i g cfr) ai.Sema.ai_his)
              in
              let extents = Array.map2 (fun h l -> h - l + 1) his lowers in
              let strides = column_major_strides extents in
              match arg with
              | Awhole ({ vresh = Some ri; _ } as v) ->
                  (* reshaped whole-array pass: argcheck compares the formal
                     shape with the actual's, then the descriptor is kept *)
                  if Array.length extents <> Array.length ri.r_ext then
                    uerror "%s: argument %s: dimension count mismatch" name
                      formal
                  else if extents <> ri.r_ext then
                    uerror "%s: argument %s: extent mismatch for reshaped \
                            actual"
                      name formal;
                  Hashtbl.replace cfr.views formal v
              | Awhole v ->
                  Hashtbl.replace cfr.views formal
                    {
                      v with
                      vlow = lowers;
                      vext = extents;
                      vstr = strides;
                      vresh = None;
                    }
              | Aelem (st, off, ri) ->
                  let words = Array.fold_left ( * ) 1 extents in
                  (match ri with
                  | Some ri ->
                      let run = guaranteed_run ri off in
                      if words > run then
                        unsup
                          "portion argument window not \
                           configuration-independent"
                  | None -> ());
                  Hashtbl.replace cfr.views formal
                    {
                      vstore = st;
                      vbase = off;
                      vlow = lowers;
                      vext = extents;
                      vstr = strides;
                      vresh = None;
                    }
              | Ai _ | Af _ ->
                  uerror "%s: argument %s: array expected" name formal)
          | _ -> ())
        formals argv;
      (try exec_body g cfr cenv.Sema.routine.Decl.rbody
       with Return_local -> ())

(* ------------------------------------------------------------------ *)

let final_image g : image =
  let arrays =
    Hashtbl.fold
      (fun qname d acc ->
        let n = Array.fold_left ( * ) 1 d.d_ext in
        let bits =
          Array.init (max 0 n) (fun i ->
              match d.d_ty with
              | Types.Tint ->
                  Int64.bits_of_float (float_of_int d.d_store.si.(i))
              | Types.Treal -> Int64.bits_of_float d.d_store.sf.(i))
        in
        (qname, bits) :: acc)
      g.stores []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { arrays; prints = List.rev !(g.prints) }

let run (files : (string * Sema.env list) list) :
    (image, failure) result =
  let routines =
    List.concat_map
      (fun (_, envs) ->
        List.map (fun (e : Sema.env) -> (e.Sema.routine.Decl.rname, e)) envs)
      files
  in
  let g =
    {
      routines;
      stores = Hashtbl.create 16;
      prints = ref [];
      steps = 0;
    }
  in
  match
    List.find_opt
      (fun (_, (e : Sema.env)) ->
        e.Sema.routine.Decl.rkind = Decl.Program)
      routines
  with
  | None -> Error (F_user "no program unit")
  | Some (_, main_env) -> (
      try
        elaborate g;
        let fr = make_frame g main_env in
        (try exec_body g fr main_env.Sema.routine.Decl.rbody
         with Return_local -> ());
        Ok (final_image g)
      with
      | Timeout | Stack_overflow -> Error F_timeout
      | Uerror m -> Error (F_user m)
      | Unsup m -> Error (F_unsupported m))

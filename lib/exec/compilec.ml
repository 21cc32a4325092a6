open Ddsm_ir
module Sema = Ddsm_sema.Sema
module Intrinsics = Ddsm_sema.Intrinsics
module Darray = Ddsm_runtime.Darray
module Rt = Ddsm_runtime.Rt
module Heap = Ddsm_runtime.Heap
module Argcheck = Ddsm_runtime.Argcheck
module Memsys = Ddsm_machine.Memsys
module Layout = Ddsm_dist.Layout
module Dim_map = Ddsm_dist.Dim_map
module Grid = Ddsm_dist.Grid
module K = Ddsm_dist.Kind
module Redist = Ddsm_dist.Redist
module Diag = Ddsm_check.Diag

type task = Sched.task

(* a continuation: where a task goes next *)
type k = task -> unit

(* code that runs and then continues at its argument; applied to its
   successor once, when the routine is linked *)
type step = k -> k

type g = {
  prog : Prog.t;
  rt : Rt.t;
  sched : Sched.t;
  checks : bool;
  bounds : bool;
  print : string -> unit;
  entries : (string, k) Hashtbl.t;
}

let create prog ~rt ~sched ~checks ~bounds ~print =
  {
    prog;
    rt;
    sched;
    checks;
    bounds;
    print;
    entries = Hashtbl.create 16;
  }

let ints (t : task) = t.Sched.frame.Frame.ints
let arrays (t : task) = t.Sched.frame.Frame.arrays

(* ------------------------------------------------------------------ *)
(* Per-routine compile environment *)

(* A scalar is an integer or a real and lives in the frame plane of its
   kind. Only the five primitives below tell the planes apart: [temp]
   picks a slot, and [read], [write], [fill] and [spill] match the kind
   when they build their closure, never when it runs. Everything else is
   written once for both kinds. *)
type _ kind = Int : int kind | Real : float kind
type any_kind = Any : 'a kind -> any_kind
type slot = Slot : 'a kind * int -> slot

let kind_of_ty = function Types.Tint -> Any Int | Types.Treal -> Any Real

type renv = {
  g : g;
  env : Sema.env;
  rname : string;
  slots : (string, slot) Hashtbl.t;
  mutable ni : int;
  mutable nf : int;
  aslots : (string, int) Hashtbl.t;
  mutable na : int;
  mutable region : string option;
      (** compiling the body of the [Par] with this label *)
  mutable in_addr : bool;
      (** compiling an address: its adds, subtracts, multiplies and
          negations are free, folded into address generation; the paper's
          reshaping overhead is the div/mods and indirect loads (§4.3/§7) *)
}

(* a fresh frame slot of [kind]; a temporary holds a value that lives
   across a memory access *)
let temp : type a. renv -> a kind -> int =
 fun renv -> function
  | Int ->
      renv.ni <- renv.ni + 1;
      renv.ni - 1
  | Real ->
      renv.nf <- renv.nf + 1;
      renv.nf - 1

(* the value in slot [r] *)
let read : type a. a kind -> int -> task -> a =
 fun kind r ->
  match kind with
  | Int -> fun t -> (ints t).(r)
  | Real -> fun t -> t.Sched.frame.Frame.floats.(r)

(* [f]'s value into slot [r], then [k] *)
let write : type a. a kind -> int -> (task -> a) -> k -> k =
 fun kind r f k ->
  match kind with
  | Int ->
      fun t ->
        (ints t).(r) <- f t;
        k t
  | Real ->
      fun t ->
        t.Sched.frame.Frame.floats.(r) <- f t;
        k t

(* a load's resume, after the commit: the accessed heap word into slot
   [r], then [k] *)
let fill : type a. Heap.t -> a kind -> int -> k -> k =
 fun heap kind r k ->
  match kind with
  | Int ->
      fun t ->
        (ints t).(r) <- Heap.get_int heap t.Sched.addr;
        k t
  | Real ->
      fun t ->
        t.Sched.frame.Frame.floats.(r) <- Heap.get_real heap t.Sched.addr;
        k t

(* a store's resume, after the commit: slot [r] into the accessed heap
   word, then [k] *)
let spill : type a. Heap.t -> a kind -> int -> k -> k =
 fun heap kind r k ->
  match kind with
  | Int ->
      fun t ->
        Heap.set_int heap t.Sched.addr (ints t).(r);
        k t
  | Real ->
      fun t ->
        Heap.set_real heap t.Sched.addr t.Sched.frame.Frame.floats.(r);
        k t

let sema_scalar_ty renv x =
  match Sema.find_sym renv.env x with
  | Some (Sema.SScalar (ty, _)) -> Some ty
  | Some (Sema.SConst (Expr.Int _)) -> Some Types.Tint
  | Some (Sema.SConst _) -> Some Types.Treal
  | _ -> None

let slot_for renv x ~ty =
  match Hashtbl.find_opt renv.slots x with
  | Some s -> s
  | None ->
      let ty = match sema_scalar_ty renv x with Some t -> t | None -> ty in
      let s = match kind_of_ty ty with Any kind -> Slot (kind, temp renv kind) in
      Hashtbl.replace renv.slots x s;
      s

(* the slot of [x], which must be an integer; [what] names it in the
   error *)
let int_slot renv x ~what =
  match slot_for renv x ~ty:Types.Tint with
  | Slot (Int, i) -> i
  | Slot (Real, _) -> Eff.error "%s %s is not an integer" what x

(* a gather site's name in events and errors: ["routine#id"], so linker
   clones are told apart *)
let gather_label renv id = renv.rname ^ "#" ^ string_of_int id

(* the frame slot that carries gather site [id]'s scratch base *)
let gather_base_slot renv id =
  int_slot renv ("gather$" ^ string_of_int id) ~what:"internal: slot"

let arr_slot renv a =
  match Hashtbl.find_opt renv.aslots a with
  | Some i -> i
  | None ->
      let i = renv.na in
      renv.na <- renv.na + 1;
      Hashtbl.replace renv.aslots a i;
      i

(* runtime name of an array: common-block members are global, everything
   else is qualified by its routine *)
let qualified (env : Sema.env) name =
  match Sema.find_array env name with
  | Some { Sema.ai_common = Some blk; _ } -> Printf.sprintf "/%s/%s" blk name
  | _ -> Printf.sprintf "%s/%s" env.Sema.routine.Decl.rname name

let array_elem_ty renv a =
  match Sema.find_array renv.env a with
  | Some ai -> ai.Sema.ai_ty
  | None -> Types.Treal

(* ------------------------------------------------------------------ *)
(* Memory helpers (word addresses; the scheduler converts to bytes) *)

(* Storing a real value into an INTEGER array element: NaN and
   out-of-range magnitudes have no integer representation — surface the
   located runtime error instead of int_of_float's silent 0/garbage. The
   fuzz reference interpreter mirrors this rule exactly. *)
let int_elem_of_real a v =
  match Rt.int_of_real v with
  | Some i -> i
  | None when Float.is_nan v ->
      (* not %g: it prints "-nan" or "nan" as the platform's printf does *)
      Eff.error "array %s: cannot store NaN into an integer element (NaN)" a
  | None ->
      Eff.error
        "array %s: cannot store %g into an integer element (out of integer range)"
        a v

let meta_addr name (ab : Frame.abind) field =
  match ab.Frame.ab_darr with
  | None ->
      Eff.error "array %s has no distribution descriptor (internal)" name
  | Some d -> (
      let mb = Darray.meta_base d in
      match field with
      | Expr.Procs dim -> mb + Darray.Meta.procs_off ~dim
      | Expr.Block dim -> mb + Darray.Meta.block_off ~dim
      | Expr.Stor dim -> mb + Darray.Meta.stor_off ~dim)

let check_subscript name (ab : Frame.abind) i s =
  let x = s - ab.Frame.ab_lowers.(i) in
  if x < 0 || x >= ab.Frame.ab_extents.(i) then
    Eff.error "array %s: subscript %d out of bounds in dim %d" name s (i + 1)

(* column-major word address of a subscript list in a plain view; with
   [bounds], an out-of-range subscript is a located error reporting the
   value already computed *)
let plain_addr ~bounds name (ab : Frame.abind) subfs t =
  let addr = ref ab.Frame.ab_base in
  for i = 0 to Array.length subfs - 1 do
    let s = subfs.(i) t in
    if bounds then check_subscript name ab i s;
    addr := !addr + ((s - ab.Frame.ab_lowers.(i)) * ab.Frame.ab_strides.(i))
  done;
  !addr

(* cost of an unoptimized reshaped address computation through the runtime
   oracle (used for element arguments at call sites): per distributed
   dimension one div and one mod, plus the indirect base load *)
let oracle_cost (l : Layout.t) =
  let nd = List.length (List.filter K.is_distributed (Array.to_list l.Layout.kinds)) in
  (nd * 2 * Costs.int_div) + Costs.addressing + 1

let charge c (t : task) = t.Sched.clock <- t.Sched.clock + c

(* the cost of an add, subtract, multiply or negation here *)
let alu renv = if renv.in_addr then 0 else Costs.alu

(* ------------------------------------------------------------------ *)
(* Expression compilation: each node is compiled once, into code of its
   own kind that carries its static cost.

   An expression without memory accesses is one direct closure, [f]. An
   expression with accesses also has a [pre]: it makes them in evaluation
   order, each result going to a frame temporary, and then continues; [f]
   computes the value from those temporaries afterwards. The order is the
   one direct-style OCaml gives the closures: binary operands and function
   arguments right to left, [let] sequences, [let ... and ...] and list
   walks left to right. An operand whose value must be computed before a
   later operand's accesses (to keep an error or a charge in place) is
   computed there and kept in a temporary, unless it is [safe]: it raises
   nothing and reads only frame slots, so computing it late changes
   nothing. *)

type 'a cexp = { pre : step option; f : task -> 'a; safe : bool; cost : int }
type value = V : 'a kind * 'a cexp -> value

let direct ?(safe = true) ?(cost = 0) f = { pre = None; f; safe; cost }
let has_pre x = Option.is_some x.pre
let is_real (V (kind, _)) = match kind with Real -> true | Int -> false
let total xs = List.fold_left (fun c x -> c + x.cost) 0 xs
let then_ pre (k : k) = match pre with None -> k | Some p -> p k

(* the steps of a sequence, in order, as one step *)
let chain pres =
  match List.filter_map Fun.id pres with
  | [] -> None
  | ps -> Some (fun k -> List.fold_right (fun p k -> p k) ps k)

(* [pre], entered only once [check] passes: a node that looks up its
   array's descriptor before its operands' accesses *)
let after_check check pre =
  Option.map
    (fun p k ->
      let pk = p k in
      fun t ->
        check t;
        pk t)
    pre

(* One operand of a node: its accesses, and a reader of its value that is
   valid in the node's own code. [later]: an operand evaluated after this
   one makes accesses. *)
let settle renv kind x ~later =
  if x.safe || not later then (x.pre, x.f)
  else
    let r = temp renv kind in
    (Some (fun k -> then_ x.pre (write kind r x.f k)), read kind r)

(* operands evaluated in list order *)
let settle_all settle has xs =
  let rec go = function
    | [] -> ([], [])
    | x :: rest ->
        let p, f = settle x ~later:(List.exists has rest) in
        let ps, fs = go rest in
        (p :: ps, f :: fs)
  in
  let ps, fs = go xs in
  (chain ps, fs)

let settle_list renv kind xs = settle_all (settle renv kind) has_pre xs

(* two operands evaluated right to left: [b]'s accesses, then [a]'s *)
let rl renv kind a b =
  let pb, fb = settle renv kind b ~later:(has_pre a) in
  let pa, fa = settle renv kind a ~later:false in
  (chain [ pb; pa ], fa, fb)

(* [x], raising [fail v] right after it yields a value [v] that [bad]
   rejects *)
let checked x bad fail =
  let f = x.f in
  {
    x with
    f =
      (fun t ->
        let v = f t in
        if bad v then fail v;
        v);
    safe = false;
  }

(* [v] as a [kind]; a conversion costs one ALU op *)
let coerce : type a. a kind -> value -> a cexp =
 fun kind (V (from, x)) ->
  let f = x.f and cost = x.cost + Costs.alu in
  match (kind, from) with
  | Int, Int -> x
  | Real, Real -> x
  | Int, Real -> { x with f = (fun t -> int_of_float (f t)); cost }
  | Real, Int -> { x with f = (fun t -> float_of_int (f t)); cost }

(* a comparison of two operands of one kind, 1 or 0 *)
let rel renv kind cmp xa xb =
  let pre, fa, fb = rl renv kind xa xb in
  {
    pre;
    f = (fun t -> if cmp (fa t) (fb t) then 1 else 0);
    safe = xa.safe && xb.safe;
    cost = xa.cost + xb.cost + Costs.alu;
  }

(* A load: the address's accesses, then the access itself, then — on
   resume, after the commit — the heap read into a temporary. *)
let load renv ty (a : int cexp) =
  let s = renv.g.sched and heap = renv.g.rt.Rt.heap and af = a.f in
  match kind_of_ty ty with
  | Any kind ->
      let r = temp renv kind in
      let pre k =
        let got = fill heap kind r k in
        then_ a.pre (fun t -> Sched.access s t (af t) false got)
      in
      V (kind, { pre = Some pre; f = read kind r; safe = true; cost = a.cost })

(* An elementwise intrinsic over operands of one kind: its cost plus
   theirs. *)
let intrin : type a. renv -> string -> a kind -> a cexp list -> int -> value =
 fun renv nm kind xs cost ->
  let cost = cost + total xs in
  let unary (op : a -> a) =
    match xs with
    | [ x ] ->
        let f = x.f in
        V (kind, { x with f = (fun t -> op (f t)); cost })
    | _ -> Eff.error "%s arity" nm
  in
  let fold op init =
    let pre, fs = settle_list renv kind xs in
    let f t = List.fold_left (fun acc f -> op acc (f t)) init fs in
    V (kind, { pre; f; safe = List.for_all (fun x -> x.safe) xs; cost })
  in
  match (kind, nm) with
  | Int, "min" -> fold min max_int
  | Int, "max" -> fold max min_int
  | Real, "min" -> fold Float.min infinity
  | Real, "max" -> fold Float.max neg_infinity
  | Int, "abs" -> unary abs
  | Real, "abs" -> unary Float.abs
  | Real, "sqrt" -> unary sqrt
  | Real, "exp" -> unary exp
  | Real, "log" -> unary log
  | Real, "sin" -> unary sin
  | Real, "cos" -> unary cos
  | Real, ("dble" | "float") -> unary Fun.id
  | _, "mod" -> (
      match (kind, xs) with
      | Int, [ xa; xb ] ->
          let xb = checked xb (fun d -> d = 0) (fun _ -> Eff.error "mod by zero") in
          let pre, fa, fb = rl renv Int xa xb in
          let f t =
            let d = fb t in
            fa t mod d
          in
          V (Int, { pre; f; safe = false; cost })
      | Real, [ xa; xb ] ->
          let pre, fa, fb = rl renv Real xa xb in
          let f t = Float.rem (fa t) (fb t) in
          V (Real, { pre; f; safe = xa.safe && xb.safe; cost })
      | _ -> Eff.error "mod arity")
  | _ -> Eff.error "unknown intrinsic %s" nm

let rec compile renv (e : Expr.t) : value =
  match e with
  | Expr.Int n -> V (Int, direct (fun _ -> n))
  | Expr.Real x -> V (Real, direct (fun _ -> x))
  | Expr.Str _ -> Eff.error "internal: string constant outside print"
  | Expr.Var x -> (
      (* a name sema does not know is an integer temporary; a bare array
         name takes its element type *)
      let ty =
        match Sema.find_array renv.env x with
        | Some ai -> ai.Sema.ai_ty
        | None -> Types.Tint
      in
      match slot_for renv x ~ty with Slot (kind, i) -> V (kind, direct (read kind i)))
  | Expr.Neg a -> (
      match compile renv a with
      | V (Int, x) ->
          let f = x.f in
          V (Int, { x with f = (fun t -> -f t); cost = x.cost + alu renv })
      | V (Real, x) ->
          let f = x.f in
          V (Real, { x with f = (fun t -> -.f t); cost = x.cost + alu renv }))
  | Expr.Bin (op, a, b) -> (
      let va = compile renv a in
      let vb = compile renv b in
      match (va, vb) with
      | V (Int, xa), V (Int, xb) -> (
          let cost = xa.cost + xb.cost in
          match op with
          | Expr.Add | Expr.Sub | Expr.Mul ->
              let pre, fa, fb = rl renv Int xa xb in
              let f =
                match op with
                | Expr.Add -> fun t -> fa t + fb t
                | Expr.Sub -> fun t -> fa t - fb t
                | _ -> fun t -> fa t * fb t
              in
              V (Int, { pre; f; safe = xa.safe && xb.safe; cost = cost + alu renv })
          | Expr.Div ->
              let xb =
                checked xb (fun d -> d = 0) (fun _ ->
                    Eff.error "integer division by zero")
              in
              let pre, fa, fb = rl renv Int xa xb in
              let f t =
                let d = fb t in
                fa t / d
              in
              V (Int, { pre; f; safe = false; cost = cost + Costs.int_div })
          | Expr.Pow ->
              (* [let base = .. and e = ..]: left to right *)
              let xb =
                checked xb (fun e -> e < 0) (fun _ ->
                    Eff.error "negative integer exponent")
              in
              let pre, fs = settle_list renv Int [ xa; xb ] in
              let fa, fb =
                match fs with [ fa; fb ] -> (fa, fb) | _ -> assert false
              in
              let f t =
                let base = fa t and e = fb t in
                let rec pw acc n = if n = 0 then acc else pw (acc * base) (n - 1) in
                pw 1 e
              in
              V (Int, { pre; f; safe = false; cost = cost + Costs.pow }))
      | _ ->
          let xa = coerce Real va and xb = coerce Real vb in
          let pre, fa, fb = rl renv Real xa xb in
          let f, c =
            match op with
            | Expr.Add -> ((fun t -> fa t +. fb t), alu renv)
            | Expr.Sub -> ((fun t -> fa t -. fb t), alu renv)
            | Expr.Mul -> ((fun t -> fa t *. fb t), alu renv)
            | Expr.Div -> ((fun t -> fa t /. fb t), Costs.real_div)
            | Expr.Pow -> ((fun t -> Float.pow (fa t) (fb t)), Costs.pow)
          in
          V (Real, { pre; f; safe = xa.safe && xb.safe; cost = xa.cost + xb.cost + c }))
  | Expr.Rel (op, a, b) -> (
      (* the comparison tables stay per kind: at a type variable, a
         comparison calls the polymorphic compare *)
      let va = compile renv a in
      let vb = compile renv b in
      match (va, vb) with
      | V (Int, xa), V (Int, xb) ->
          let cmp : int -> int -> bool =
            match op with
            | Expr.Lt -> ( < )
            | Expr.Le -> ( <= )
            | Expr.Gt -> ( > )
            | Expr.Ge -> ( >= )
            | Expr.Eq -> ( = )
            | Expr.Ne -> ( <> )
          in
          V (Int, rel renv Int cmp xa xb)
      | _ ->
          let cmp : float -> float -> bool =
            match op with
            | Expr.Lt -> ( < )
            | Expr.Le -> ( <= )
            | Expr.Gt -> ( > )
            | Expr.Ge -> ( >= )
            | Expr.Eq -> ( = )
            | Expr.Ne -> ( <> )
          in
          V (Int, rel renv Real cmp (coerce Real va) (coerce Real vb)))
  | Expr.Log (op, a, b) -> (
      let xa = compile_int renv a in
      let xb = compile_int renv b in
      let cost = xa.cost + xb.cost + Costs.alu in
      let fa = xa.f and fb = xb.f in
      match xb.pre with
      | None ->
          (* [b] makes no access: it stays conditional in the node's code *)
          let f =
            match op with
            | Expr.And -> fun t -> if fa t <> 0 && fb t <> 0 then 1 else 0
            | Expr.Or -> fun t -> if fa t <> 0 || fb t <> 0 then 1 else 0
          in
          V (Int, { pre = xa.pre; f; safe = xa.safe && xb.safe; cost })
      | Some pb ->
          (* short circuit: [b]'s accesses happen only when [a] does not
             decide the result *)
          let r = temp renv Int in
          let pre k =
            let rhs =
              pb (fun t ->
                  (ints t).(r) <- (if fb t <> 0 then 1 else 0);
                  k t)
            in
            let decided v t =
              (ints t).(r) <- v;
              k t
            in
            then_ xa.pre
              (match op with
              | Expr.And -> fun t -> if fa t <> 0 then rhs t else decided 0 t
              | Expr.Or -> fun t -> if fa t <> 0 then decided 1 t else rhs t)
          in
          V (Int, { pre = Some pre; f = read Int r; safe = true; cost }))
  | Expr.Not a ->
      let x = compile_int renv a in
      let f = x.f in
      V (Int, { x with f = (fun t -> if f t = 0 then 1 else 0); cost = x.cost + Costs.alu })
  | Expr.Idiv (impl, a, b) ->
      let xa = compile_int renv a in
      let xb = compile_int renv b in
      let cost = xa.cost + xb.cost + div_cost impl in
      let xb =
        checked xb (fun d -> d <= 0) (fun _ ->
            Eff.error "idiv by non-positive value")
      in
      let pre, fa, fb = rl renv Int xa xb in
      let f t =
        let d = fb t in
        Ddsm_dist.Intmath.fdiv (fa t) d
      in
      V (Int, { pre; f; safe = false; cost })
  | Expr.Imod (impl, a, b) ->
      let xa = compile_int renv a in
      let xb = compile_int renv b in
      let cost = xa.cost + xb.cost + div_cost impl in
      let xb =
        checked xb (fun d -> d <= 0) (fun _ ->
            Eff.error "imod by non-positive value")
      in
      let pre, fa, fb = rl renv Int xa xb in
      let f t =
        let d = fb t in
        Ddsm_dist.Intmath.fmod (fa t) d
      in
      V (Int, { pre; f; safe = false; cost })
  | Expr.GatherBase id ->
      (* scratch base of the gather site, which its dominating
         [Stmt.Gather] leaves in the frame as base + 1, so an unset slot
         reads 0 (a fork copies it into the children). Free: the
         executor's address math around it is charged through the
         enclosing [AbsLoad]. *)
      let label = gather_label renv id and slot = gather_base_slot renv id in
      V
        ( Int,
          direct ~safe:false (fun t ->
              let b = (ints t).(slot) in
              if b = 0 then
                Eff.error "internal: gather site %s read before its inspector"
                  label;
              b - 1) )
  | Expr.Meta (name, field) ->
      let aslot = arr_slot renv name in
      load renv Types.Tint
        (direct ~safe:false (fun t -> meta_addr name (arrays t).(aslot) field))
  | Expr.BaseOf (name, p) ->
      let aslot = arr_slot renv name in
      let xp = compile_int renv p in
      let fp = xp.f in
      let descriptor t =
        match (arrays t).(aslot).Frame.ab_darr with
        | None -> Eff.error "array %s has no descriptor (BaseOf)" name
        | Some d -> d
      in
      let addr t =
        let d = descriptor t in
        let nd = Array.length d.Darray.extents in
        Darray.meta_base d + Darray.Meta.bases_off ~ndims:nd + fp t
      in
      (* the descriptor is looked up before [p] is evaluated *)
      let pre = after_check (fun t -> ignore (descriptor t)) xp.pre in
      load renv Types.Tint
        { pre; f = addr; safe = false; cost = xp.cost + Costs.addressing }
  | Expr.AbsLoad (ty, a) ->
      let xa = compile_addr renv a in
      load renv ty { xa with cost = xa.cost + Costs.addressing }
  | Expr.Ref (a, subs) ->
      load renv (array_elem_ty renv a) (ref_addr renv a (subscripts renv subs))
  | Expr.Intrin (nm, args) -> compile_intrin renv nm args

and compile_int renv e = coerce Int (compile renv e)
and compile_float renv e = coerce Real (compile renv e)

and div_cost = function Expr.Hw -> Costs.int_div | Expr.Fp -> Costs.fp_div

(* an integer address expression, its adds and multiplies free *)
and compile_addr renv e =
  let outer = renv.in_addr in
  renv.in_addr <- true;
  let x = compile_int renv e in
  renv.in_addr <- outer;
  x

and subscripts renv subs = Array.of_list (List.map (compile_addr renv) subs)

(* column-major address of an array reference through its runtime binding;
   reshaped descriptors fall back to the runtime oracle (call-argument
   subscript positions and defensive paths) *)
and ref_addr renv a subs : int cexp =
  let aslot = arr_slot renv a in
  let nd = Array.length subs in
  let bounds = renv.g.bounds in
  let reshaped t =
    match (arrays t).(aslot).Frame.ab_darr with
    | Some { Darray.storage = Darray.Reshaped _; _ } -> true
    | Some _ | None -> false
  in
  let pre, subfs =
    if not (Array.exists has_pre subs) then (None, Array.map (fun x -> x.f) subs)
    else
      (* subscripts with accesses: under [bounds] a plain view checks each
         subscript before the next one's accesses, as the direct loop
         below does *)
      let subs =
        if bounds then
          Array.mapi
            (fun i x ->
              let f = x.f in
              {
                x with
                f =
                  (fun t ->
                    let s = f t in
                    if not (reshaped t) then
                      check_subscript a (arrays t).(aslot) i s;
                    s);
                safe = false;
              })
            subs
        else subs
      in
      let pre, fs = settle_list renv Int (Array.to_list subs) in
      (pre, Array.of_list fs)
  in
  let f t =
    let ab = (arrays t).(aslot) in
    match ab.Frame.ab_darr with
    | Some ({ Darray.storage = Darray.Reshaped { layout; _ }; _ } as d) ->
        (* runtime oracle with the unoptimized Table 1 cost *)
        let idx = Array.init nd (fun i -> subfs.(i) t) in
        charge (oracle_cost layout) t;
        (try Darray.word_addr d idx
         with Invalid_argument m -> Eff.error "%s" m)
    | _ -> plain_addr ~bounds a ab subfs t
  in
  { pre; f; safe = false; cost = total (Array.to_list subs) + Costs.addressing }

(* Inquiry intrinsics charge their cost plus one per argument after the
   array name, and nothing for the arguments themselves. [int]/[nint] take
   a real argument; every other intrinsic is real when its result is
   (sqrt, exp, ...) or any argument is (mod, min, max, abs), and then
   computes over reals. *)
and compile_intrin renv nm args : value =
  let cost = Costs.intrinsic nm in
  match nm with
  | "dsm_nprocs" ->
      let n = Rt.nprocs renv.g.rt in
      V (Int, direct ~cost (fun _ -> n))
  | "dsm_myproc" -> V (Int, direct ~cost (fun t -> t.Sched.proc))
  | "dsm_numprocs" | "dsm_chunksize" | "dsm_this_lo" | "dsm_this_hi"
  | "dsm_owner" | "dsm_distribution" | "dsm_isreshaped" ->
      compile_dsm renv nm args cost
  | "int" | "nint" -> (
      match args with
      | [ a ] ->
          let x = compile_float renv a in
          let f = x.f and cost = x.cost + cost in
          if nm = "int" then V (Int, { x with f = (fun t -> int_of_float (f t)); cost })
          else V (Int, { x with f = (fun t -> int_of_float (Float.round (f t))); cost })
      | _ -> Eff.error "%s arity" nm)
  | _ ->
      let vs = List.map (compile renv) args in
      let real_result =
        match Intrinsics.lookup nm with
        | Some { Intrinsics.result = `Real; _ } -> true
        | _ -> false
      in
      if real_result || List.exists is_real vs then
        intrin renv nm Real (List.map (coerce Real) vs) cost
      else intrin renv nm Int (List.map (coerce Int) vs) cost

and compile_dsm renv nm args cost : value =
  let aname, rest =
    match args with
    | Expr.Var a :: rest -> (a, rest)
    | _ -> Eff.error "%s: first argument must name an array" nm
  in
  let aslot = arr_slot renv aname in
  let xs = List.map (compile_int renv) rest in
  let layout_of t =
    let ab = (arrays t).(aslot) in
    match ab.Frame.ab_darr with
    | Some d -> (
        match d.Darray.storage with
        | Darray.Regular { layout; _ } | Darray.Reshaped { layout; _ } ->
            (d, layout)
        | Darray.Plain _ -> Eff.error "%s: array %s is not distributed" nm aname)
    | None -> Eff.error "%s: array %s has no descriptor here" nm aname
  in
  let pre, restf = settle_list renv Int xs in
  (* the layout is looked up before any argument is evaluated *)
  let pre = after_check (fun t -> ignore (layout_of t)) pre in
  let f t =
    let d, l = layout_of t in
    match (nm, restf) with
    | "dsm_numprocs", [ fdim ] -> l.Layout.grid.Grid.per_dim.(fdim t - 1)
    | "dsm_chunksize", [ fdim ] -> l.Layout.dims.(fdim t - 1).Dim_map.block
    | ("dsm_this_lo" | "dsm_this_hi"), [ fdim ] -> (
        let dim = fdim t - 1 in
        let total = Layout.nprocs l in
        let p = t.Sched.proc mod total in
        let ow = Grid.delinear l.Layout.grid p in
        let ranges = Dim_map.portion_ranges l.Layout.dims.(dim) ~proc:ow.(dim) in
        match ranges with
        | [] -> 0
        | (lo, _) :: _ when nm = "dsm_this_lo" -> lo + d.Darray.lower.(dim)
        | rs ->
            let _, hi = List.nth rs (List.length rs - 1) in
            hi + d.Darray.lower.(dim))
    | "dsm_owner", [ fdim; fidx ] ->
        let dim = fdim t - 1 in
        Dim_map.owner l.Layout.dims.(dim) (fidx t - d.Darray.lower.(dim))
    | "dsm_distribution", [ fdim ] -> (
        match l.Layout.kinds.(fdim t - 1) with
        | K.Star -> 0
        | K.Block -> 1
        | K.Cyclic -> 2
        | K.Cyclic_k _ -> 3)
    | "dsm_isreshaped", [] -> (
        match d.Darray.storage with
        | Darray.Reshaped _ -> 1
        | Darray.Plain _ | Darray.Regular _ -> 0)
    | _ -> Eff.error "%s: bad arguments" nm
  in
  V (Int, { pre; f; safe = false; cost = cost + List.length xs })

(* ------------------------------------------------------------------ *)
(* Statements

   [compile_stmt] does a statement's compile-time work (slots, operands,
   compile errors) at once, in source order, and returns a linker: applied
   to the statement's successor, it builds the statement's code, which ends
   by calling that successor in tail position. A body is linked from its
   last statement back, so every continuation exists before any code runs
   and a task that never parks runs in constant stack. *)

(* One processor's state of a gather site: its scratch, the source word
   of each iteration slot and the schedule cached under [gs_key]. Each
   compiled [Stmt.Gather] makes one per processor of the job when it
   compiles, and a task uses the one of its processor: tasks that run at
   once run on different processors, so none reads another's scratch. *)
type site = {
  mutable gs_scratch : int;  (* scratch base word *)
  mutable gs_addrs : int array;
      (* iteration slot -> source word address; its length is the scratch
         capacity *)
  gs_key : int array;
      (* index version, target version, the evaluated lower bounds, then
         the upper bounds: what the cached schedule was inspected under,
         compared in place on every execution. Index version -1 until
         inspected (versions start at 0). *)
  mutable gs_rounds : int;  (* per-home rounds of the cached schedule *)
  mutable gs_round_words : int;  (* sum over rounds of the largest transfer *)
}

(* charge [c], then run [pre] and continue at [k] *)
let charged c pre (k : k) : k =
  let run = then_ pre k in
  fun t ->
    charge c t;
    run t

(* pop the task's innermost return point: unregister the call's argument
   checks, restore the caller's frame and continue at the call's
   successor *)
let return_ g (t : task) =
  match t.Sched.calls with
  | [] -> failwith "return outside a called routine"
  | r :: rest ->
      t.Sched.calls <- rest;
      t.Sched.frame <- r.Sched.caller;
      List.iter
        (fun addr ->
          match Argcheck.unregister g.rt.Rt.argcheck ~addr with
          | Ok () -> ()
          | Error m -> Eff.error "%s" m)
        r.Sched.registered;
      r.Sched.k t

let rec compile_body renv stmts : step =
  let links = List.map (compile_stmt renv) stmts in
  fun k -> List.fold_right (fun link k -> link k) links k

and compile_stmt renv (st : Stmt.t) : step =
  match st.Stmt.s with
  | Stmt.Assign (Stmt.LVar v, e) -> (
      let value = compile renv e in
      match slot_for renv v ~ty:(if is_real value then Types.Treal else Types.Tint) with
      | Slot (kind, i) ->
          let x = coerce kind value in
          fun k -> charged (x.cost + Costs.assign) x.pre (write kind i x.f k))
  | Stmt.Assign (Stmt.LRef (a, subs), e) ->
      let addr = ref_addr renv a (subscripts renv subs) in
      let aslot = arr_slot renv a in
      compile_store renv ~name:a (array_elem_ty renv a) addr e ~bump:(Some aslot)
  | Stmt.AbsStore (ty, aexp, e) ->
      let xa = compile_addr renv aexp in
      compile_store renv ~name:"<lowered>" ty
        { xa with cost = xa.cost + Costs.addressing }
        e ~bump:None
  | Stmt.Do d ->
      let xlo = compile_int renv d.Stmt.lo in
      let xhi = compile_int renv d.Stmt.hi in
      let xstep =
        match d.Stmt.step with
        | None -> direct (fun _ -> 1)
        | Some s -> compile_int renv s
      in
      let head_cost = xlo.cost + xhi.cost + xstep.cost + Costs.assign in
      let slot = int_slot renv d.Stmt.var ~what:"loop variable" in
      let body = compile_body renv d.Stmt.body in
      let limit = renv.g.sched.Sched.max_cycles in
      (* [let lo = .. and hi = .. and step = ..]: left to right *)
      let pre, fs = settle_list renv Int [ xlo; xhi; xstep ] in
      let flo, fhi, fstep =
        match fs with [ l; h; s ] -> (l, h, s) | _ -> assert false
      in
      (* the bound and the step live in frame slots, so the loop's
         continuations are fixed at link time *)
      let hi_slot = temp renv Int and step_slot = temp renv Int in
      fun k ->
        let body_k = ref k in
        let test t =
          let a = ints t in
          let v = a.(slot) and hi = a.(hi_slot) in
          if if a.(step_slot) > 0 then v <= hi else v >= hi then begin
            if t.Sched.clock > limit then
              Sched.fail renv.g.sched t (Diag.Cycle_budget { limit })
            else begin
              charge Costs.loop_iter t;
              !body_k t
            end
          end
          else k t
        in
        body_k :=
          body (fun t ->
              let a = ints t in
              a.(slot) <- a.(slot) + a.(step_slot);
              test t);
        charged head_cost pre (fun t ->
            let lo = flo t and hi = fhi t and step = fstep t in
            if step = 0 then Eff.error "do %s: zero step" d.Stmt.var;
            let a = ints t in
            a.(hi_slot) <- hi;
            a.(step_slot) <- step;
            a.(slot) <- lo;
            test t)
  | Stmt.If (cond, th, el) ->
      let xc = compile_int renv cond in
      let fth = compile_body renv th and fel = compile_body renv el in
      let fc = xc.f in
      fun k ->
        let th = fth k and el = fel k in
        charged (xc.cost + Costs.alu) xc.pre (fun t -> if fc t <> 0 then th t else el t)
  | Stmt.Call (name, args) -> compile_call renv name args
  | Stmt.Doacross _ -> Eff.error "internal: doacross reached the VM unlowered"
  | Stmt.Redistribute rd ->
      let kinds = Array.of_list rd.Stmt.rkinds in
      let onto = Option.map Array.of_list rd.Stmt.ronto in
      let procs = rd.Stmt.rprocs in
      let qname = qualified renv.env rd.Stmt.rarray in
      fun k t ->
        (match Rt.redistribute renv.g.rt ~name:qname ~kinds ?onto ?procs () with
        | Ok ({ Rt.rounds; round_words; retries; _ } as result) -> (
            (* each failed attempt costs a backoff; the data movement
               itself is charged by the round schedule — rounds run back
               to back, transfers within a round in parallel. A fallback
               costs only the retries (nothing moves, the old placement is
               kept). *)
            charge
              ((retries * Costs.retry_backoff)
              + Costs.scheduled ~round:Costs.redistribute_round ~rounds
                  ~round_words)
              t;
            let { Sched.proc; clock = now; _ } = t in
            match renv.g.rt.Rt.observe with
            | None -> ()
            | Some observe ->
                observe (Rt.Redistribute { array = qname; result; proc; now }))
        | Error m -> Eff.error "%s" m);
        k t
  | Stmt.Gather gth -> compile_gather renv gth
  | Stmt.Continue -> fun k -> k
  | Stmt.Barrier -> (
      let s = renv.g.sched in
      match renv.region with
      | None -> fun k t -> Sched.barrier s t k
      | Some region ->
          (* only the workers this [Par] forked wait: where it ran inline
             (nested), the task belongs to another region *)
          fun k t -> if t.Sched.region == region then Sched.barrier s t k else k t)
  | Stmt.Return -> fun _ -> return_ renv.g
  | Stmt.Print items ->
      let compiled =
        List.map
          (fun e ->
            match e with
            | Expr.Str s -> Either.Left s
            | _ -> Either.Right (compile renv e))
          items
      in
      (* each value settled in its own kind, then shown as a string *)
      let show (V (kind, x)) ~later : step option * (task -> string) =
        let pre, f = settle renv kind x ~later in
        match kind with
        | Int -> (pre, fun t -> string_of_int (f t))
        | Real -> (pre, fun t -> Printf.sprintf "%.10g" (f t))
      in
      let pre, readers =
        settle_all show
          (fun (V (_, x)) -> has_pre x)
          (List.filter_map Either.find_right compiled)
      in
      let rec strings items readers =
        match (items, readers) with
        | [], _ -> []
        | Either.Left s :: items, readers -> (fun _ -> s) :: strings items readers
        | Either.Right _ :: items, f :: readers -> f :: strings items readers
        | Either.Right _ :: _, [] -> assert false
      in
      let fs = strings compiled readers in
      fun k ->
        then_ pre (fun t ->
            renv.g.print (String.concat " " (List.map (fun f -> f t) fs));
            k t)
  | Stmt.Par p ->
      let region =
        Printf.sprintf "%s:%d" renv.rname st.Stmt.loc.Loc.line
      in
      let myp_slot = int_slot renv "myp$" ~what:"internal: slot" in
      let np_slot = int_slot renv "np$" ~what:"internal: slot" in
      (* a [Par] inside a [Par] body always runs at depth > 0 *)
      let outer = renv.region in
      let nested = outer <> None in
      renv.region <- Some region;
      let body = compile_body renv p.Stmt.pbody in
      renv.region <- outer;
      let s = renv.g.sched and n = Rt.nprocs renv.g.rt in
      fun k ->
        (* nested parallelism runs single-worker (documented) *)
        let inline = body k in
        let run_inline t =
          (ints t).(myp_slot) <- 0;
          (ints t).(np_slot) <- 1;
          inline t
        in
        if nested then run_inline
        else
          let forked = body (Sched.finish s) in
          fun t ->
            if t.Sched.depth > 0 then run_inline t
            else
              Sched.fork s t ~n ~region ~myp:myp_slot ~np:np_slot ~body:forked ~k

(* One store path for array elements and lowered addresses: charge,
   evaluate the value, then the address, and make the write access; on
   resume, after the commit, write the heap and, for an array element,
   bump its write generation (cached gather schedules over the array key
   on it and must re-inspect after any visible store). Like a load's, the
   resume continuation is built once, at link time. A real value stored
   into an integer element is converted under [int_elem_of_real] and costs
   one more ALU op. *)
and compile_store renv ~name ty (addr : int cexp) e ~bump : step =
  let s = renv.g.sched and heap = renv.g.rt.Rt.heap and fa = addr.f in
  let bumped (k : k) : k =
    match bump with
    | None -> k
    | Some aslot ->
        fun t ->
          (match (arrays t).(aslot).Frame.ab_darr with
          | Some d -> Darray.bump_version d
          | None -> ());
          k t
  in
  let store kind x =
    let pv, fv = settle renv kind x ~later:(has_pre addr) in
    let r = temp renv kind in
    fun k ->
      let stored = spill heap kind r (bumped k) in
      charged (addr.cost + x.cost + Costs.assign) (chain [ pv; addr.pre ])
        (write kind r fv (fun t -> Sched.access s t (fa t) true stored))
  in
  match (ty, compile renv e) with
  | Types.Treal, value -> store Real (coerce Real value)
  | Types.Tint, V (Real, x) ->
      let f = x.f in
      store Int
        {
          x with
          f = (fun t -> int_elem_of_real name (f t));
          safe = false;
          cost = x.cost + Costs.alu;
        }
  | Types.Tint, V (Int, x) -> store Int x

(* ------------------------------------------------------------------ *)
(* Inspector-executor gather (Stmt.Gather).

   On a schedule-cache miss — keyed on (index-array version, target
   version, evaluated rectangle bounds) — the inspector walks the
   iteration rectangle once, reads the index vector through ordinary
   timed accesses and computes each referenced target address with the
   SAME base/lower/stride arithmetic as the naive reference path
   (bit-faithful, including the bounds-mode error). Once the walk ends it
   bins the recorded addresses by (source home, scratch home) into an
   all-to-all round schedule: the walk itself touches only the index
   array's pages, so it moves no target or scratch home.

   On EVERY execution the current target values move into scratch: one
   bulk fetch ({!Rt.gather_fetch}) charged by the round schedule, or —
   when the fault plan fails every attempt the retry rule allows — a
   per-element fallback through ordinary timed loads. Either way the
   scratch holds the same values, so results never depend on the fault
   plan. The state is the running processor's {!site}; the scratch base
   goes into the frame, where [Expr.GatherBase] reads it.

   The walk and the fallback are resumable loops whose state their
   continuations capture, made only on a miss or a fallback; the walk
   drives the loop variables through the frame in odometer order, the
   innermost dimension fastest. *)

and compile_gather renv (gth : Stmt.gather) : step =
  let g = renv.g in
  let s = g.sched in
  let label = gather_label renv gth.Stmt.g_id in
  let bslot = gather_base_slot renv gth.Stmt.g_id in
  let tslot = arr_slot renv gth.Stmt.g_target in
  let islot = arr_slot renv gth.Stmt.g_index in
  let tq = qualified renv.env gth.Stmt.g_target in
  (* the inspector only forms gathers over pure scalar bounds and index
     subscripts *)
  let pure what x =
    match x.pre with
    | None -> x.f
    | Some _ -> Eff.error "internal: gather %s %s reads memory" label what
  in
  let dims =
    Array.of_list
      (List.map
         (fun (v, lo, hi) ->
           let slot = int_slot renv v ~what:"gather: loop variable" in
           let flo = pure "bound" (compile_int renv lo) in
           let fhi = pure "bound" (compile_int renv hi) in
           (slot, flo, fhi))
         gth.Stmt.g_dims)
  in
  let ndims = Array.length dims in
  let vslots = Array.map (fun (v, _, _) -> v) dims in
  let isubs = subscripts renv gth.Stmt.g_isubs in
  let isubcost = total (Array.to_list isubs) in
  let isubfs = Array.map (pure "subscript") isubs in
  let scale = gth.Stmt.g_scale and off = gth.Stmt.g_off in
  let bounds = g.bounds in
  let target = gth.Stmt.g_target and index = gth.Stmt.g_index in
  let elem =
    if array_elem_ty renv target = Types.Treal then Darray.Real else Darray.Int
  in
  let rt = g.rt in
  let heap = rt.Rt.heap and mem = rt.Rt.mem in
  let sites =
    Array.init (Rt.nprocs rt) (fun _ ->
        {
          gs_scratch = 0;
          gs_addrs = [||];
          gs_key = Array.make (2 + (2 * ndims)) (-1);
          gs_rounds = 0;
          gs_round_words = 0;
        })
  in
  let observe_gather site nslots step ~retries (t : task) =
    match rt.Rt.observe with
    | None -> ()
    | Some observe ->
        observe
          (Rt.Gather
             {
               site = label;
               step;
               slots = nslots;
               rounds = site.gs_rounds;
               retries;
               proc = t.Sched.proc;
               now = t.Sched.clock;
             })
  in
  let home a =
    Option.value ~default:0 (Memsys.home_of_addr mem (Heap.byte_of_word a))
  in
  (* the cached schedule of the walk's recorded addresses *)
  let schedule site nslots =
    let pairs = Hashtbl.create 16 in
    for i = 0 to nslots - 1 do
      let pair = (home site.gs_addrs.(i), home (site.gs_scratch + i)) in
      match Hashtbl.find_opt pairs pair with
      | Some r -> incr r
      | None -> Hashtbl.replace pairs pair (ref 1)
    done;
    let rounds =
      Redist.rounds_of_moves
        ~r:(Ddsm_machine.Config.nnodes (Memsys.config mem))
        (Hashtbl.fold
           (fun (src, dst) n acc -> { Redist.src; dst; words = !n } :: acc)
           pairs [])
    in
    site.gs_rounds <- List.length rounds;
    site.gs_round_words <- Redist.round_words rounds
  in
  fun k ->
    (* the per-element fallback: one timed load per slot *)
    let fallback site nslots ~retries t =
      let slot = ref 0 in
      let rec fall t =
        if !slot < nslots then
          Sched.access s t site.gs_addrs.(!slot) false fell
        else begin
          observe_gather site nslots Rt.Fallback ~retries t;
          k t
        end
      and fell t =
        Darray.copy_elem heap elem ~src:site.gs_addrs.(!slot)
          ~dst:(site.gs_scratch + !slot);
        incr slot;
        fall t
      in
      fall t
    in
    (* every execution: move the CURRENT target values into scratch; each
       failed bulk attempt costs a backoff *)
    let fetch site nslots t =
      let { Rt.retries; fell_back } =
        Rt.gather_fetch rt ~elem ~addrs:site.gs_addrs ~scratch:site.gs_scratch
          ~slots:nslots
      in
      charge (retries * Costs.retry_backoff) t;
      if fell_back then fallback site nslots ~retries t
      else begin
        charge
          (Costs.scheduled ~round:Costs.gather_round ~rounds:site.gs_rounds
             ~round_words:site.gs_round_words)
          t;
        observe_gather site nslots Rt.Fetch ~retries t;
        k t
      end
    in
    (* the inspector walk: one timed index load per slot *)
    let inspect site ~tab ~iab ~los ~his ~nslots ~iver ~tver t =
      let a = ints t in
      let saved = Array.map (fun vslot -> a.(vslot)) vslots in
      Array.iteri (fun d vslot -> a.(vslot) <- los.(d)) vslots;
      let cur = Array.copy los and slot = ref 0 in
      (* next slot of the rectangle: false once the walk is over *)
      let rec advance a d =
        d >= 0
        &&
        if cur.(d) < his.(d) then begin
          cur.(d) <- cur.(d) + 1;
          a.(vslots.(d)) <- cur.(d);
          true
        end
        else begin
          cur.(d) <- los.(d);
          a.(vslots.(d)) <- los.(d);
          advance a (d - 1)
        end
      in
      let rec visit t =
        charge (Costs.gather_inspect + isubcost) t;
        let iaddr = plain_addr ~bounds index iab isubfs t in
        Sched.access s t iaddr false visited
      and visited t =
        let ival = Heap.get_int heap t.Sched.addr in
        let sub = (scale * ival) + off in
        if bounds then check_subscript target tab 0 sub;
        site.gs_addrs.(!slot) <-
          tab.Frame.ab_base
          + ((sub - tab.Frame.ab_lowers.(0)) * tab.Frame.ab_strides.(0));
        incr slot;
        if advance (ints t) (ndims - 1) then visit t else inspected t
      and inspected t =
        (* the walk drove the loop variables through the frame; restore
           them so the executor (and any read of the variables after the
           nest) sees exactly the naive values *)
        let a = ints t in
        Array.iteri (fun d vslot -> a.(vslot) <- saved.(d)) vslots;
        schedule site nslots;
        let key = site.gs_key in
        key.(0) <- iver;
        key.(1) <- tver;
        Array.blit los 0 key 2 ndims;
        Array.blit his 0 key (2 + ndims) ndims;
        observe_gather site nslots Rt.Inspect ~retries:0 t;
        fetch site nslots t
      in
      visit t
    in
    fun t ->
      let tab = (arrays t).(tslot) in
      let iab = (arrays t).(islot) in
      let td =
        match tab.Frame.ab_darr with
        | Some d -> d
        | None -> Eff.error "internal: gather target %s has no descriptor" target
      in
      let idd =
        match iab.Frame.ab_darr with
        | Some d -> d
        | None -> Eff.error "internal: gather index %s has no descriptor" index
      in
      let site = sites.(t.Sched.proc) in
      let key = site.gs_key in
      let iver = idd.Darray.version and tver = td.Darray.version in
      (* evaluate the bounds and compare them with the cached key in
         place: a cache hit allocates nothing *)
      let hit = ref (key.(0) = iver && key.(1) = tver) and nslots = ref 1 in
      for d = 0 to ndims - 1 do
        let _, flo, fhi = dims.(d) in
        let lo = flo t and hi = fhi t in
        if lo <> key.(2 + d) || hi <> key.(2 + ndims + d) then hit := false;
        nslots := !nslots * max 0 (hi - lo + 1)
      done;
      let nslots = !nslots in
      if nslots = 0 then begin
        (* empty rectangle: the executor never runs, but its [GatherBase]
           is still compiled — leave a harmless base in place *)
        (ints t).(bslot) <- site.gs_scratch + 1;
        k t
      end
      else if !hit then begin
        (ints t).(bslot) <- site.gs_scratch + 1;
        fetch site nslots t
      end
      else begin
        (* cache miss: inspect. The index vector is read through ordinary
           timed accesses — inspection is real work the benchmark must
           see; repeated sweeps then hit the cache. The bounds are pure,
           so evaluating them again for the walk reads the same values. *)
        let los = Array.make (max 1 ndims) 0 and his = Array.make (max 1 ndims) 0 in
        Array.iteri
          (fun d (_, flo, fhi) ->
            los.(d) <- flo t;
            his.(d) <- fhi t)
          dims;
        rt.Rt.gather_inspections <- rt.Rt.gather_inspections + 1;
        if Array.length site.gs_addrs < nslots then begin
          site.gs_scratch <-
            Rt.alloc_gather_scratch rt ~src_array:tq ~words:nslots;
          site.gs_addrs <- Array.make nslots 0
        end;
        (ints t).(bslot) <- site.gs_scratch + 1;
        inspect site ~tab ~iab ~los ~his ~nslots ~iver ~tver t
      end

(* ------------------------------------------------------------------ *)
(* Calls *)

and compile_call renv name args : step =
  let g = renv.g in
  match Prog.find g.prog name with
  | None -> fun _ _ -> Eff.error "call to undefined subroutine %s" name
  | Some callee ->
      let formals = callee.Sema.routine.Decl.rparams in
      if List.length formals <> List.length args then
        Eff.error "call %s: %d arguments for %d formals" name (List.length args)
          (List.length formals);
      (* per argument: its evaluation, its cost and its argcheck
         registration *)
      let builders =
        List.map2
          (fun formal actual ->
            match Sema.find_sym callee formal with
            | Some (Sema.SArray _) -> compile_array_arg renv actual
            | Some (Sema.SScalar (Types.Tint, _)) ->
                let x = compile_int renv actual in
                let f = x.f in
                ({ x with f = (fun t -> Frame.Ai (f t)) }, Fun.id)
            | Some (Sema.SScalar (Types.Treal, _)) ->
                let x = compile_float renv actual in
                let f = x.f in
                ({ x with f = (fun t -> Frame.Af (f t)) }, Fun.id)
            | _ ->
                Eff.error "call %s: formal %s is not declared in the callee"
                  name formal)
          formals args
      in
      let static_cost = Costs.call + total (List.map fst builders) in
      let n = List.length builders in
      (* each argument is evaluated in full, in order, into [t.args] *)
      let arg_steps =
        List.mapi
          (fun i (x, _) ->
            let f = x.f in
            fun k ->
              then_ x.pre (fun t ->
                  t.Sched.args.(i) <- f t;
                  k t))
          builders
      in
      let reg_steps = List.map snd builders in
      fun k ->
        let enter t =
          let entry =
            match Hashtbl.find_opt g.entries name with
            | Some e -> e
            | None -> Eff.error "internal: %s not compiled" name
          in
          t.Sched.calls <-
            { Sched.caller = t.Sched.frame; k; registered = List.rev t.Sched.regs }
            :: t.Sched.calls;
          entry t
        in
        let registered =
          if g.checks then List.fold_right (fun reg k -> reg k) reg_steps enter
          else enter
        in
        let evaluated =
          List.fold_right
            (fun arg k -> arg k)
            arg_steps
            (fun t ->
              t.Sched.regs <- [];
              registered t)
        in
        fun t ->
          charge static_cost t;
          t.Sched.args <- (if n = 0 then [||] else Array.make n (Frame.Ai 0));
          evaluated t

(* array actual argument: whole array (Var) or element (Ref) *)
and compile_array_arg renv actual : Frame.arg cexp * step =
  let g = renv.g in
  let register ~addr info t =
    charge Costs.argcheck_register t;
    Argcheck.register g.rt.Rt.argcheck ~addr info;
    t.Sched.regs <- addr :: t.Sched.regs
  in
  match actual with
  | Expr.Var a ->
      let aslot = arr_slot renv a in
      let arg = direct ~cost:Costs.alu (fun t -> Frame.Awhole (arrays t).(aslot)) in
      let reg k t =
        let ab = (arrays t).(aslot) in
        (match ab.Frame.ab_darr with
        | Some { Darray.storage = Darray.Reshaped { layout; _ }; extents; _ } ->
            register ~addr:ab.Frame.ab_base
              (Argcheck.Whole_array { extents; kinds = layout.Layout.kinds })
              t
        | _ -> ());
        k t
      in
      (arg, reg)
  | Expr.Ref (a, subs) ->
      let subxs = subscripts renv subs in
      let addr = ref_addr renv a subxs in
      let aslot = arr_slot renv a in
      let fa = addr.f in
      let arg =
        {
          addr with
          f =
            (fun t ->
              (* the callee receives a bare address (its binding has no
                 descriptor), so any store it makes through the element is
                 invisible to the version counter — bump conservatively
                 here *)
              (match (arrays t).(aslot).Frame.ab_darr with
              | Some d -> Darray.bump_version d
              | None -> ());
              Frame.Aelem (fa t));
        }
      in
      (* a reshaped element registers its portion: the address, then each
         subscript again *)
      let pre, fs = settle_list renv Int (addr :: Array.to_list subxs) in
      let faddr, fsubs =
        match fs with f :: fs -> (f, Array.of_list fs) | [] -> assert false
      in
      let reg k =
        let regd =
          then_ pre (fun t ->
              (match (arrays t).(aslot).Frame.ab_darr with
              | Some d ->
                  let addr = faddr t in
                  let idx = Array.map (fun f -> f t) fsubs in
                  register ~addr
                    (Argcheck.Portion { words = Darray.portion_run d idx })
                    t
              | None -> ());
              k t)
        in
        fun t ->
          match (arrays t).(aslot).Frame.ab_darr with
          | Some { Darray.storage = Darray.Reshaped _; _ } -> regd t
          | _ -> k t
      in
      (arg, reg)
  | _ -> Eff.error "array argument must be an array name or an array element"

(* ------------------------------------------------------------------ *)
(* Routine entries. An entry binds the caller's [t.args] into a fresh
   frame and runs the body; the caller has already pushed the return
   point that the body's end (or a [Return]) pops. *)

(* the static binding of a non-formal array of the routine of [env]; an
   equivalenced array views its base's storage *)
let static_abind g env array =
  match Sema.find_array env array with
  | None | Some { Sema.ai_formal = true; _ } -> None
  | Some ai -> (
      let target =
        match ai.Sema.ai_equiv_base with Some b -> b | None -> array
      in
      match Rt.find_array g.rt (qualified env target) with
      | None -> None
      | Some d ->
          let lowers, extents =
            match ai.Sema.ai_const_shape with
            | Some s -> s
            | None -> (d.Darray.lower, d.Darray.extents)
          in
          let base =
            match d.Darray.storage with
            | Darray.Plain { base } | Darray.Regular { base; _ } -> base
            | Darray.Reshaped { meta; _ } -> meta
          in
          Some
            {
              Frame.ab_darr =
                (if ai.Sema.ai_equiv_base = None then Some d else None);
              ab_base = base;
              ab_lowers = lowers;
              ab_strides = Frame.column_strides extents;
              ab_extents = extents;
              ab_ty = ai.Sema.ai_ty;
            })

let compile_routine g (name : string) (env : Sema.env) : k =
  let renv =
    {
      g;
      env;
      rname = name;
      slots = Hashtbl.create 32;
      ni = 0;
      nf = 0;
      aslots = Hashtbl.create 8;
      na = 0;
      region = None;
      in_addr = false;
    }
  in
  let r = env.Sema.routine in
  (* pre-create slots for declared scalars so types are right *)
  List.iter
    (fun (v : Decl.vdecl) ->
      if v.Decl.vdims = [] then ignore (slot_for renv v.Decl.vname ~ty:v.Decl.vty)
      else ignore (arr_slot renv v.Decl.vname))
    r.Decl.rdecls;
  let bodyc = compile_body renv r.Decl.rbody in
  (* formal binding plan *)
  let formal_plan =
    List.map
      (fun p ->
        match Sema.find_sym env p with
        | Some (Sema.SArray ai) ->
            (* dim expressions may reference formal scalars (adjustable) *)
            let dims =
              List.map2
                (fun lo hi ->
                  (compile_int renv lo, compile_int renv hi))
                ai.Sema.ai_los ai.Sema.ai_his
            in
            let kinds =
              Option.map
                (fun (d : Decl.dist) -> Array.of_list d.Decl.dkinds)
                ai.Sema.ai_dist
            in
            `Array (p, arr_slot renv p, ai.Sema.ai_ty, dims, kinds)
        | Some (Sema.SScalar (ty, _)) -> `Scalar (p, slot_for renv p ~ty)
        | _ -> Eff.error "routine %s: formal %s undeclared" name p)
      r.Decl.rparams
  in
  (* static template for non-formal arrays *)
  let formals_set = r.Decl.rparams in
  let template = Array.make (max 1 renv.na) Frame.dummy_abind in
  Hashtbl.iter
    (fun aname slot ->
      if not (List.mem aname formals_set) then
        match static_abind g env aname with
        | Some ab -> template.(slot) <- ab
        | None -> ())
    renv.aslots;
  (* array formals, in order, each bound after its dimension expressions
     (every lower bound, then every upper bound) *)
  let array_steps =
    List.concat
      (List.mapi
         (fun i plan ->
           match plan with
           | `Scalar _ -> []
           | `Array (p, aslot, fty, dims, kinds) ->
               let nd = List.length dims in
               let pre, fs =
                 settle_list renv Int (List.map fst dims @ List.map snd dims)
               in
               let fs = Array.of_list fs in
               [
                 (fun k ->
                   then_ pre (fun t ->
                       let lowers = Array.init nd (fun d -> fs.(d) t) in
                       let his = Array.init nd (fun d -> fs.(nd + d) t) in
                       let extents = Array.map2 (fun h l -> h - l + 1) his lowers in
                       let strides = Frame.column_strides extents in
                       let ab =
                         match t.Sched.args.(i) with
                         | Frame.Awhole
                             ({
                                Frame.ab_darr =
                                  Some { Darray.storage = Darray.Reshaped _; _ };
                                _;
                              } as ab) ->
                             (* reshaped whole-array pass: keep the descriptor *)
                             ab
                         | Frame.Awhole ab ->
                             {
                               ab with
                               Frame.ab_lowers = lowers;
                               ab_strides = strides;
                               ab_extents = extents;
                               ab_ty = fty;
                             }
                         | Frame.Aelem addr ->
                             {
                               Frame.ab_darr = None;
                               ab_base = addr;
                               ab_lowers = lowers;
                               ab_strides = strides;
                               ab_extents = extents;
                               ab_ty = fty;
                             }
                         | Frame.Ai _ | Frame.Af _ ->
                             Eff.error "%s: argument %s: array expected" name p
                       in
                       (arrays t).(aslot) <- ab;
                       if g.checks then begin
                         charge Costs.argcheck_lookup t;
                         match
                           Argcheck.check_entry g.rt.Rt.argcheck
                             ~addr:ab.Frame.ab_base ~name:p
                             ~formal_extents:extents ?formal_kinds:kinds ()
                         with
                         | Ok () -> ()
                         | Error m -> Eff.error "%s" m
                       end;
                       k t));
               ])
         formal_plan)
  in
  let body = List.fold_right (fun step k -> step k) array_steps (bodyc (return_ g)) in
  fun t ->
    let frame =
      Frame.create ~n_int:renv.ni ~n_float:renv.nf ~arrays:(Array.copy template)
    in
    t.Sched.frame <- frame;
    (* bind scalars first (adjustable array dims may need them) *)
    List.iteri
      (fun i plan ->
        match (plan, t.Sched.args.(i)) with
        | `Scalar (_, Slot (Int, i)), Frame.Ai v -> frame.Frame.ints.(i) <- v
        | `Scalar (_, Slot (Int, i)), Frame.Af v -> frame.Frame.ints.(i) <- int_of_float v
        | `Scalar (_, Slot (Real, i)), Frame.Af v -> frame.Frame.floats.(i) <- v
        | `Scalar (_, Slot (Real, i)), Frame.Ai v -> frame.Frame.floats.(i) <- float_of_int v
        | `Scalar (p, _), _ -> Eff.error "%s: argument %s: scalar expected" name p
        | `Array _, _ -> ())
      formal_plan;
    body t

let compile_all g =
  Prog.iter g.prog (fun name env ->
      Hashtbl.replace g.entries name (compile_routine g name env))

let run_main g : k =
  let finish = Sched.finish g.sched in
  fun t ->
    match Hashtbl.find_opt g.entries g.prog.Prog.main with
    | Some entry ->
        t.Sched.calls <-
          [ { Sched.caller = t.Sched.frame; k = finish; registered = [] } ];
        t.Sched.args <- [||];
        entry t
    | None -> Eff.error "main routine %s not compiled" g.prog.Prog.main

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
let floats (t : task) = t.Sched.frame.Frame.floats
let arrays (t : task) = t.Sched.frame.Frame.arrays

(* ------------------------------------------------------------------ *)
(* Per-routine compile environment *)

type slot = SInt of int | SFloat of int

type renv = {
  g : g;
  env : Sema.env;
  rname : string;
  slots : (string, slot) Hashtbl.t;
  mutable ni : int;
  mutable nf : int;
  aslots : (string, int) Hashtbl.t;
  mutable na : int;
  mutable in_par : bool;  (** compiling the body of a [Par] *)
}

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
      let s =
        match ty with
        | Types.Tint ->
            let i = renv.ni in
            renv.ni <- renv.ni + 1;
            SInt i
        | Types.Treal ->
            let i = renv.nf in
            renv.nf <- renv.nf + 1;
            SFloat i
      in
      Hashtbl.replace renv.slots x s;
      s

(* frame temporaries: values that live across a memory access *)
let temp_int renv =
  renv.ni <- renv.ni + 1;
  renv.ni - 1

let temp_float renv =
  renv.nf <- renv.nf + 1;
  renv.nf - 1

(* a gather site's name in events and errors: ["routine#id"], so linker
   clones are told apart *)
let gather_label renv id = renv.rname ^ "#" ^ string_of_int id

(* the frame slot that carries gather site [id]'s scratch base *)
let gather_base_slot renv id =
  match slot_for renv ("gather$" ^ string_of_int id) ~ty:Types.Tint with
  | SInt i -> i
  | SFloat _ -> assert false

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
  | None ->
      Eff.error "array %s: cannot store %g into an integer element (%s)" a v
        (if Float.is_nan v then "NaN" else "out of integer range")

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
let oracle_cost (d : Darray.t) =
  match d.Darray.layout with
  | None -> Costs.addressing
  | Some l ->
      let nd = List.length (List.filter K.is_distributed (Array.to_list l.Layout.kinds)) in
      (nd * 2 * Costs.int_div) + Costs.addressing + 1

(* Plain add/sub/mul/neg inside an *address* expression is free: real
   hardware folds base+offset arithmetic into address-generation, and the
   paper's measured reshaping overhead is exactly the div/mod operations and
   indirect loads, not the adds (§4.3/§7). *)
let alu_discount e =
  let n = ref 0 in
  Expr.iter
    (function
      | Expr.Bin ((Expr.Add | Expr.Sub | Expr.Mul), _, _) | Expr.Neg _ -> incr n
      | _ -> ())
    e;
  !n * Costs.alu

let charge c (t : task) = t.Sched.clock <- t.Sched.clock + c

(* ------------------------------------------------------------------ *)
(* Expression compilation: each node is compiled once, into code of its
   own type and its static cost.

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

type 'a cexp = { pre : step option; f : task -> 'a; safe : bool }
type value = I of int cexp | F of float cexp

let direct ?(safe = true) f = { pre = None; f; safe }
let has_pre x = Option.is_some x.pre
let then_ pre (k : k) = match pre with None -> k | Some p -> p k

(* the steps of a sequence, in order, as one step *)
let chain pres =
  match List.filter_map Fun.id pres with
  | [] -> None
  | ps -> Some (fun k -> List.fold_right (fun p k -> p k) ps k)

(* One operand of a node: its accesses, and a reader of its value that is
   valid in the node's own code. [later]: an operand evaluated after this
   one makes accesses. *)
let settle_int renv x ~later =
  if x.safe || not later then (x.pre, x.f)
  else
    let r = temp_int renv and f = x.f in
    ( Some
        (fun k ->
          then_ x.pre (fun t ->
              (ints t).(r) <- f t;
              k t)),
      fun t -> (ints t).(r) )

let settle_float renv x ~later =
  if x.safe || not later then (x.pre, x.f)
  else
    let r = temp_float renv and f = x.f in
    ( Some
        (fun k ->
          then_ x.pre (fun t ->
              (floats t).(r) <- f t;
              k t)),
      fun t -> (floats t).(r) )

let settle_value renv v ~later =
  match v with
  | I x ->
      let p, f = settle_int renv x ~later in
      (p, I (direct f))
  | F x ->
      let p, f = settle_float renv x ~later in
      (p, F (direct f))

let value_pre = function I x -> x.pre | F x -> x.pre

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

let settle_ints renv xs = settle_all (settle_int renv) has_pre xs
let settle_floats renv xs = settle_all (settle_float renv) has_pre xs

let settle_values renv vs =
  settle_all (settle_value renv) (fun v -> Option.is_some (value_pre v)) vs

(* two operands evaluated right to left: [b]'s accesses, then [a]'s *)
let rl_ints renv a b =
  let pb, fb = settle_int renv b ~later:(has_pre a) in
  let pa, fa = settle_int renv a ~later:false in
  (chain [ pb; pa ], fa, fb)

let rl_floats renv a b =
  let pb, fb = settle_float renv b ~later:(has_pre a) in
  let pa, fa = settle_float renv a ~later:false in
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

(* the two coercions; a conversion costs one ALU op *)
let to_int = function
  | I x, c -> (x, c)
  | F x, c ->
      let f = x.f in
      ({ x with f = (fun t -> int_of_float (f t)) }, c + Costs.alu)

let to_float = function
  | F x, c -> (x, c)
  | I x, c ->
      let f = x.f in
      ({ x with f = (fun t -> float_of_int (f t)) }, c + Costs.alu)

let is_real = function F _, _ -> true | I _, _ -> false

(* the compiled operands of several arguments and their summed cost *)
let sum_costs cs = (List.map fst cs, List.fold_left (fun acc (_, c) -> acc + c) 0 cs)

(* A load: the address's accesses, then the access itself, then — on
   resume, after the commit — the heap read into a temporary. *)
let load renv ty (a : int cexp) =
  let s = renv.g.sched and heap = renv.g.rt.Rt.heap and af = a.f in
  match ty with
  | Types.Tint ->
      let r = temp_int renv in
      let pre k =
        let got t =
          (ints t).(r) <- Heap.get_int heap t.Sched.addr;
          k t
        in
        then_ a.pre (fun t -> Sched.access s t (af t) false got)
      in
      I { pre = Some pre; f = (fun t -> (ints t).(r)); safe = true }
  | Types.Treal ->
      let r = temp_float renv in
      let pre k =
        let got t =
          (floats t).(r) <- Heap.get_real heap t.Sched.addr;
          k t
        in
        then_ a.pre (fun t -> Sched.access s t (af t) false got)
      in
      F { pre = Some pre; f = (fun t -> (floats t).(r)); safe = true }

let rec compile renv (e : Expr.t) : value * int =
  match e with
  | Expr.Int n -> (I (direct (fun _ -> n)), 0)
  | Expr.Real x -> (F (direct (fun _ -> x)), 0)
  | Expr.Str _ -> Eff.error "internal: string constant outside print"
  | Expr.Var x -> (
      (* a name sema does not know is an integer temporary; a bare array
         name takes its element type *)
      let ty =
        match Sema.find_array renv.env x with
        | Some ai -> ai.Sema.ai_ty
        | None -> Types.Tint
      in
      match slot_for renv x ~ty with
      | SInt i -> (I (direct (fun t -> (ints t).(i))), 0)
      | SFloat i -> (F (direct (fun t -> (floats t).(i))), 0))
  | Expr.Neg a -> (
      match compile renv a with
      | I x, c ->
          let f = x.f in
          (I { x with f = (fun t -> -f t) }, c + Costs.alu)
      | F x, c ->
          let f = x.f in
          (F { x with f = (fun t -> -.f t) }, c + Costs.alu))
  | Expr.Bin (op, a, b) -> (
      let ra = compile renv a in
      let rb = compile renv b in
      match (ra, rb) with
      | (I xa, ca), (I xb, cb) -> (
          let c = ca + cb in
          match op with
          | Expr.Add | Expr.Sub | Expr.Mul ->
              let pre, fa, fb = rl_ints renv xa xb in
              let f =
                match op with
                | Expr.Add -> fun t -> fa t + fb t
                | Expr.Sub -> fun t -> fa t - fb t
                | _ -> fun t -> fa t * fb t
              in
              (I { pre; f; safe = xa.safe && xb.safe }, c + Costs.alu)
          | Expr.Div ->
              let xb =
                checked xb (fun d -> d = 0) (fun _ ->
                    Eff.error "integer division by zero")
              in
              let pre, fa, fb = rl_ints renv xa xb in
              ( I
                  {
                    pre;
                    f =
                      (fun t ->
                        let d = fb t in
                        fa t / d);
                    safe = false;
                  },
                c + Costs.int_div )
          | Expr.Pow ->
              (* [let base = .. and e = ..]: left to right *)
              let xb =
                checked xb (fun e -> e < 0) (fun _ ->
                    Eff.error "negative integer exponent")
              in
              let pre, fs = settle_ints renv [ xa; xb ] in
              let fa, fb =
                match fs with [ fa; fb ] -> (fa, fb) | _ -> assert false
              in
              ( I
                  {
                    pre;
                    f =
                      (fun t ->
                        let base = fa t and e = fb t in
                        let rec pw acc n =
                          if n = 0 then acc else pw (acc * base) (n - 1)
                        in
                        pw 1 e);
                    safe = false;
                  },
                c + Costs.pow ))
      | _ -> (
          let xa, ca = to_float ra and xb, cb = to_float rb in
          let c = ca + cb in
          let pre, fa, fb = rl_floats renv xa xb in
          let safe = xa.safe && xb.safe in
          match op with
          | Expr.Add -> (F { pre; f = (fun t -> fa t +. fb t); safe }, c + Costs.alu)
          | Expr.Sub -> (F { pre; f = (fun t -> fa t -. fb t); safe }, c + Costs.alu)
          | Expr.Mul -> (F { pre; f = (fun t -> fa t *. fb t); safe }, c + Costs.alu)
          | Expr.Div -> (F { pre; f = (fun t -> fa t /. fb t); safe }, c + Costs.real_div)
          | Expr.Pow ->
              (F { pre; f = (fun t -> Float.pow (fa t) (fb t)); safe }, c + Costs.pow)))
  | Expr.Rel (op, a, b) ->
      let ra = compile renv a in
      let rb = compile renv b in
      let pre, test, safe, c =
        match (ra, rb) with
        | (I xa, ca), (I xb, cb) ->
            let cmp : int -> int -> bool =
              match op with
              | Expr.Lt -> ( < )
              | Expr.Le -> ( <= )
              | Expr.Gt -> ( > )
              | Expr.Ge -> ( >= )
              | Expr.Eq -> ( = )
              | Expr.Ne -> ( <> )
            in
            let pre, fa, fb = rl_ints renv xa xb in
            (pre, (fun t -> cmp (fa t) (fb t)), xa.safe && xb.safe, ca + cb)
        | _ ->
            let xa, ca = to_float ra and xb, cb = to_float rb in
            let cmp : float -> float -> bool =
              match op with
              | Expr.Lt -> ( < )
              | Expr.Le -> ( <= )
              | Expr.Gt -> ( > )
              | Expr.Ge -> ( >= )
              | Expr.Eq -> ( = )
              | Expr.Ne -> ( <> )
            in
            let pre, fa, fb = rl_floats renv xa xb in
            (pre, (fun t -> cmp (fa t) (fb t)), xa.safe && xb.safe, ca + cb)
      in
      (I { pre; f = (fun t -> if test t then 1 else 0); safe }, c + Costs.alu)
  | Expr.Log (op, a, b) -> (
      let xa, ca = compile_int renv a in
      let xb, cb = compile_int renv b in
      let c = ca + cb + Costs.alu in
      let fa = xa.f and fb = xb.f in
      match xb.pre with
      | None ->
          (* [b] makes no access: it stays conditional in the node's code *)
          let f =
            match op with
            | Expr.And -> fun t -> if fa t <> 0 && fb t <> 0 then 1 else 0
            | Expr.Or -> fun t -> if fa t <> 0 || fb t <> 0 then 1 else 0
          in
          (I { pre = xa.pre; f; safe = xa.safe && xb.safe }, c)
      | Some pb ->
          (* short circuit: [b]'s accesses happen only when [a] does not
             decide the result *)
          let r = temp_int renv in
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
          (I { pre = Some pre; f = (fun t -> (ints t).(r)); safe = true }, c))
  | Expr.Not a ->
      let x, c = compile_int renv a in
      let f = x.f in
      (I { x with f = (fun t -> if f t = 0 then 1 else 0) }, c + Costs.alu)
  | Expr.Idiv (impl, a, b) ->
      let xa, ca = compile_int renv a in
      let xb, cb = compile_int renv b in
      let xb =
        checked xb (fun d -> d <= 0) (fun _ ->
            Eff.error "idiv by non-positive value")
      in
      let pre, fa, fb = rl_ints renv xa xb in
      ( I
          {
            pre;
            f =
              (fun t ->
                let d = fb t in
                Ddsm_dist.Intmath.fdiv (fa t) d);
            safe = false;
          },
        ca + cb + div_cost impl )
  | Expr.Imod (impl, a, b) ->
      let xa, ca = compile_int renv a in
      let xb, cb = compile_int renv b in
      let xb =
        checked xb (fun d -> d <= 0) (fun _ ->
            Eff.error "imod by non-positive value")
      in
      let pre, fa, fb = rl_ints renv xa xb in
      ( I
          {
            pre;
            f =
              (fun t ->
                let d = fb t in
                Ddsm_dist.Intmath.fmod (fa t) d);
            safe = false;
          },
        ca + cb + div_cost impl )
  | Expr.GatherBase id ->
      (* scratch base of the gather site, which its dominating
         [Stmt.Gather] leaves in the frame as base + 1, so an unset slot
         reads 0 (a fork copies it into the children). Free: the
         executor's address math around it is charged through the
         enclosing [AbsLoad]. *)
      let label = gather_label renv id and slot = gather_base_slot renv id in
      ( I
          (direct ~safe:false (fun t ->
               let b = (ints t).(slot) in
               if b = 0 then
                 Eff.error "internal: gather site %s read before its inspector"
                   label;
               b - 1)),
        0 )
  | Expr.Meta (name, field) ->
      let aslot = arr_slot renv name in
      ( load renv Types.Tint
          (direct ~safe:false (fun t -> meta_addr name (arrays t).(aslot) field)),
        0 )
  | Expr.BaseOf (name, p) ->
      let aslot = arr_slot renv name in
      let xp, cp = compile_int renv p in
      let fp = xp.f in
      let no_descriptor () = Eff.error "array %s has no descriptor (BaseOf)" name in
      let addr t =
        match (arrays t).(aslot).Frame.ab_darr with
        | None -> no_descriptor ()
        | Some d ->
            let nd = Array.length d.Darray.extents in
            Darray.meta_base d + Darray.Meta.bases_off ~ndims:nd + fp t
      in
      (* the descriptor is looked up before [p] is evaluated *)
      let pre =
        Option.map
          (fun pp k ->
            let pk = pp k in
            fun t ->
              match (arrays t).(aslot).Frame.ab_darr with
              | None -> no_descriptor ()
              | Some _ -> pk t)
          xp.pre
      in
      (load renv Types.Tint { pre; f = addr; safe = false }, cp + Costs.addressing)
  | Expr.AbsLoad (ty, a) ->
      let xa, ca = compile_addr renv a in
      (load renv ty xa, ca + Costs.addressing)
  | Expr.Ref (a, subs) ->
      let addr, c = ref_addr renv a (subscripts renv subs) in
      (load renv (array_elem_ty renv a) addr, c)
  | Expr.Intrin (nm, args) -> compile_intrin renv nm args

and compile_int renv e = to_int (compile renv e)
and compile_float renv e = to_float (compile renv e)

and div_cost = function Expr.Hw -> Costs.int_div | Expr.Fp -> Costs.fp_div

(* an integer address expression, its adds and multiplies discounted *)
and compile_addr renv e =
  let x, c = compile_int renv e in
  (x, max 0 (c - alu_discount e))

and subscripts renv subs =
  let xs, c = sum_costs (List.map (compile_addr renv) subs) in
  (Array.of_list xs, c)

(* column-major address of an array reference through its runtime binding;
   reshaped descriptors fall back to the runtime oracle (call-argument
   subscript positions and defensive paths) *)
and ref_addr renv a (subs, subcost) : int cexp * int =
  let aslot = arr_slot renv a in
  let nd = Array.length subs in
  let bounds = renv.g.bounds in
  let reshaped t =
    match (arrays t).(aslot).Frame.ab_darr with
    | Some d -> d.Darray.reshaped
    | None -> false
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
      let pre, fs = settle_ints renv (Array.to_list subs) in
      (pre, Array.of_list fs)
  in
  let f t =
    let ab = (arrays t).(aslot) in
    match ab.Frame.ab_darr with
    | Some d when d.Darray.reshaped ->
        (* runtime oracle with the unoptimized Table 1 cost *)
        let idx = Array.init nd (fun i -> subfs.(i) t) in
        charge (oracle_cost d) t;
        (try Darray.word_addr d idx
         with Invalid_argument m -> Eff.error "%s" m)
    | _ -> plain_addr ~bounds a ab subfs t
  in
  ({ pre; f; safe = false }, subcost + Costs.addressing)

(* Inquiry intrinsics charge their cost plus one per argument after the
   array name, and nothing for the arguments themselves. [int]/[nint] take
   a real argument; every other intrinsic is real when its result is
   (sqrt, exp, ...) or any argument is (mod, min, max, abs), and then
   computes over reals. *)
and compile_intrin renv nm args : value * int =
  let cost = Costs.intrinsic nm in
  match nm with
  | "dsm_nprocs" ->
      let n = Rt.nprocs renv.g.rt in
      (I (direct (fun _ -> n)), cost)
  | "dsm_myproc" -> (I (direct (fun t -> t.Sched.proc)), cost)
  | "dsm_numprocs" | "dsm_chunksize" | "dsm_this_lo" | "dsm_this_hi"
  | "dsm_owner" | "dsm_distribution" | "dsm_isreshaped" ->
      compile_dsm renv nm args cost
  | "int" | "nint" -> (
      match args with
      | [ a ] ->
          let x, c = compile_float renv a in
          let f = x.f in
          if nm = "int" then (I { x with f = (fun t -> int_of_float (f t)) }, c + cost)
          else
            (I { x with f = (fun t -> int_of_float (Float.round (f t))) }, c + cost)
      | _ -> Eff.error "%s arity" nm)
  | _ ->
      let rs = List.map (compile renv) args in
      let real_result =
        match Intrinsics.lookup nm with
        | Some { Intrinsics.result = `Real; _ } -> true
        | _ -> false
      in
      if real_result || List.exists is_real rs then begin
        let xs, argcost = sum_costs (List.map to_float rs) in
        let c = argcost + cost in
        let safe = List.for_all (fun x -> x.safe) xs in
        let unary op =
          match xs with
          | [ x ] ->
              let f = x.f in
              (F { x with f = (fun t -> op (f t)) }, c)
          | _ -> Eff.error "%s arity" nm
        in
        let fold op init =
          let pre, fs = settle_floats renv xs in
          (F { pre; f = (fun t -> List.fold_left (fun acc f -> op acc (f t)) init fs); safe }, c)
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
            match xs with
            | [ xa; xb ] ->
                let pre, fa, fb = rl_floats renv xa xb in
                (F { pre; f = (fun t -> Float.rem (fa t) (fb t)); safe }, c)
            | _ -> Eff.error "mod arity")
        | "min" -> fold Float.min infinity
        | "max" -> fold Float.max neg_infinity
        | _ -> Eff.error "unknown intrinsic %s" nm
      end
      else begin
        let xs, argcost = sum_costs (List.map to_int rs) in
        let c = argcost + cost in
        let safe = List.for_all (fun x -> x.safe) xs in
        let fold op init =
          let pre, fs = settle_ints renv xs in
          (I { pre; f = (fun t -> List.fold_left (fun acc f -> op acc (f t)) init fs); safe }, c)
        in
        match nm with
        | "mod" -> (
            match xs with
            | [ xa; xb ] ->
                let xb =
                  checked xb (fun d -> d = 0) (fun _ -> Eff.error "mod by zero")
                in
                let pre, fa, fb = rl_ints renv xa xb in
                ( I
                    {
                      pre;
                      f =
                        (fun t ->
                          let d = fb t in
                          fa t mod d);
                      safe = false;
                    },
                  c )
            | _ -> Eff.error "mod arity")
        | "min" -> fold min max_int
        | "max" -> fold max min_int
        | "abs" -> (
            match xs with
            | [ x ] ->
                let f = x.f in
                (I { x with f = (fun t -> abs (f t)) }, c)
            | _ -> Eff.error "abs arity")
        | _ -> Eff.error "unknown intrinsic %s" nm
      end

and compile_dsm renv nm args cost : value * int =
  let aname, rest =
    match args with
    | Expr.Var a :: rest -> (a, rest)
    | _ -> Eff.error "%s: first argument must name an array" nm
  in
  let aslot = arr_slot renv aname in
  let xs = List.map (fun a -> fst (compile_int renv a)) rest in
  let layout_of t =
    let ab = (arrays t).(aslot) in
    match ab.Frame.ab_darr with
    | Some d -> (
        match d.Darray.layout with
        | Some l -> (d, l)
        | None -> Eff.error "%s: array %s is not distributed" nm aname)
    | None -> Eff.error "%s: array %s has no descriptor here" nm aname
  in
  let pre, restf = settle_ints renv xs in
  (* the layout is looked up before any argument is evaluated *)
  let pre =
    Option.map
      (fun p k ->
        let pk = p k in
        fun t ->
          ignore (layout_of t);
          pk t)
      pre
  in
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
    | "dsm_isreshaped", [] -> if d.Darray.reshaped then 1 else 0
    | _ -> Eff.error "%s: bad arguments" nm
  in
  (I { pre; f; safe = false }, cost + List.length xs)

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
      let r = compile renv e in
      match slot_for renv v ~ty:(if is_real r then Types.Treal else Types.Tint) with
      | SInt i ->
          let x, c = to_int r in
          let f = x.f in
          fun k ->
            charged (c + Costs.assign) x.pre (fun t ->
                (ints t).(i) <- f t;
                k t)
      | SFloat i ->
          let x, c = to_float r in
          let f = x.f in
          fun k ->
            charged (c + Costs.assign) x.pre (fun t ->
                (floats t).(i) <- f t;
                k t))
  | Stmt.Assign (Stmt.LRef (a, subs), e) ->
      let addr = ref_addr renv a (subscripts renv subs) in
      let aslot = arr_slot renv a in
      compile_store renv ~name:a (array_elem_ty renv a) addr e ~bump:(Some aslot)
  | Stmt.AbsStore (ty, aexp, e) ->
      let xa, ca = compile_addr renv aexp in
      compile_store renv ~name:"<lowered>" ty (xa, ca + Costs.addressing) e
        ~bump:None
  | Stmt.Do d -> (
      let xlo, clo = compile_int renv d.Stmt.lo in
      let xhi, chi = compile_int renv d.Stmt.hi in
      let xstep, cstep =
        match d.Stmt.step with
        | None -> (direct (fun _ -> 1), 0)
        | Some s -> compile_int renv s
      in
      let head_cost = clo + chi + cstep + Costs.assign in
      match slot_for renv d.Stmt.var ~ty:Types.Tint with
      | SFloat _ -> Eff.error "loop variable %s is not an integer" d.Stmt.var
      | SInt slot ->
          let body = compile_body renv d.Stmt.body in
          let limit = renv.g.sched.Sched.max_cycles in
          (* [let lo = .. and hi = .. and step = ..]: left to right *)
          let pre, fs = settle_ints renv [ xlo; xhi; xstep ] in
          let flo, fhi, fstep =
            match fs with [ l; h; s ] -> (l, h, s) | _ -> assert false
          in
          (* the bound and the step live in frame slots, so the loop's
             continuations are fixed at link time *)
          let hi_slot = temp_int renv and step_slot = temp_int renv in
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
                test t))
  | Stmt.If (cond, th, el) ->
      let xc, cc = compile_int renv cond in
      let fth = compile_body renv th and fel = compile_body renv el in
      let fc = xc.f in
      fun k ->
        let th = fth k and el = fel k in
        charged (cc + Costs.alu) xc.pre (fun t -> if fc t <> 0 then th t else el t)
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
  | Stmt.Barrier ->
      fun k t ->
        Rt.note_barrier renv.g.rt ~proc:t.Sched.proc ~now:t.Sched.clock;
        k t
  | Stmt.Return -> fun _ -> return_ renv.g
  | Stmt.Print items ->
      let compiled =
        List.map
          (fun e ->
            match e with
            | Expr.Str s -> Either.Left s
            | _ -> Either.Right (fst (compile renv e)))
          items
      in
      let pre, readers =
        settle_values renv (List.filter_map Either.find_right compiled)
      in
      let rec strings items readers =
        match (items, readers) with
        | [], _ -> []
        | Either.Left s :: items, readers -> (fun _ -> s) :: strings items readers
        | Either.Right _ :: items, I x :: readers ->
            let f = x.f in
            (fun t -> string_of_int (f t)) :: strings items readers
        | Either.Right _ :: items, F x :: readers ->
            let f = x.f in
            (fun t -> Printf.sprintf "%.10g" (f t)) :: strings items readers
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
      let (myp_slot, np_slot) =
        match (slot_for renv "myp$" ~ty:Types.Tint, slot_for renv "np$" ~ty:Types.Tint) with
        | SInt a, SInt b -> (a, b)
        | _ -> assert false
      in
      (* a [Par] inside a [Par] body always runs at depth > 0 *)
      let nested = renv.in_par in
      renv.in_par <- true;
      let body = compile_body renv p.Stmt.pbody in
      renv.in_par <- nested;
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
and compile_store renv ~name ty ((addr : int cexp), ca) e ~bump : step =
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
  let int_store (x : int cexp) ce =
    let pv, fv = settle_int renv x ~later:(has_pre addr) in
    let r = temp_int renv in
    fun k ->
      let after = bumped k in
      let stored t =
        Heap.set_int heap t.Sched.addr (ints t).(r);
        after t
      in
      charged (ca + ce + Costs.assign) (chain [ pv; addr.pre ]) (fun t ->
          let v = fv t in
          let a = fa t in
          (ints t).(r) <- v;
          Sched.access s t a true stored)
  in
  match (ty, compile renv e) with
  | Types.Treal, r ->
      let x, ce = to_float r in
      let pv, fv = settle_float renv x ~later:(has_pre addr) in
      let r = temp_float renv in
      fun k ->
        let after = bumped k in
        let stored t =
          Heap.set_real heap t.Sched.addr (floats t).(r);
          after t
        in
        charged (ca + ce + Costs.assign) (chain [ pv; addr.pre ]) (fun t ->
            let v = fv t in
            let a = fa t in
            (floats t).(r) <- v;
            Sched.access s t a true stored)
  | Types.Tint, (F x, ce) ->
      let f = x.f in
      int_store
        { x with f = (fun t -> int_elem_of_real name (f t)); safe = false }
        (ce + Costs.alu)
  | Types.Tint, (I x, ce) -> int_store x ce

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
  let pure what (x, _) =
    match x.pre with
    | None -> x.f
    | Some _ -> Eff.error "internal: gather %s %s reads memory" label what
  in
  let dims =
    Array.of_list
      (List.map
         (fun (v, lo, hi) ->
           let slot =
             match slot_for renv v ~ty:Types.Tint with
             | SInt i -> i
             | SFloat _ ->
                 Eff.error "gather: loop variable %s is not an integer" v
           in
           let flo = pure "bound" (compile_int renv lo) in
           let fhi = pure "bound" (compile_int renv hi) in
           (slot, flo, fhi))
         gth.Stmt.g_dims)
  in
  let ndims = Array.length dims in
  let vslots = Array.map (fun (v, _, _) -> v) dims in
  let isubs, isubcost = subscripts renv gth.Stmt.g_isubs in
  let isubfs = Array.map (fun x -> pure "subscript" (x, 0)) isubs in
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
      let formals = callee.Prog.env.Sema.routine.Decl.rparams in
      if List.length formals <> List.length args then
        Eff.error "call %s: %d arguments for %d formals" name (List.length args)
          (List.length formals);
      (* per argument: its evaluation, its cost and its argcheck
         registration *)
      let builders =
        List.map2
          (fun formal actual ->
            match Sema.find_sym callee.Prog.env formal with
            | Some (Sema.SArray _) -> compile_array_arg renv actual
            | Some (Sema.SScalar (ty, _)) -> (
                match ty with
                | Types.Tint ->
                    let x, c = compile_int renv actual in
                    let f = x.f in
                    ({ x with f = (fun t -> Frame.Ai (f t)) }, c, Fun.id)
                | Types.Treal ->
                    let x, c = compile_float renv actual in
                    let f = x.f in
                    ({ x with f = (fun t -> Frame.Af (f t)) }, c, Fun.id))
            | _ ->
                Eff.error "call %s: formal %s is not declared in the callee"
                  name formal)
          formals args
      in
      let static_cost =
        Costs.call + List.fold_left (fun acc (_, c, _) -> acc + c) 0 builders
      in
      let n = List.length builders in
      (* each argument is evaluated in full, in order, into [t.args] *)
      let arg_steps =
        List.mapi
          (fun i (x, _, _) ->
            let f = x.f in
            fun k ->
              then_ x.pre (fun t ->
                  t.Sched.args.(i) <- f t;
                  k t))
          builders
      in
      let reg_steps = List.map (fun (_, _, reg) -> reg) builders in
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
and compile_array_arg renv actual : Frame.arg cexp * int * step =
  let g = renv.g in
  let register ~addr info t =
    charge Costs.argcheck_register t;
    Argcheck.register g.rt.Rt.argcheck ~addr info;
    t.Sched.regs <- addr :: t.Sched.regs
  in
  match actual with
  | Expr.Var a ->
      let aslot = arr_slot renv a in
      let arg = direct (fun t -> Frame.Awhole (arrays t).(aslot)) in
      let reg k t =
        let ab = (arrays t).(aslot) in
        (match ab.Frame.ab_darr with
        | Some d when d.Darray.reshaped -> (
            match d.Darray.layout with
            | Some l ->
                register ~addr:ab.Frame.ab_base
                  (Argcheck.Whole_array
                     { extents = d.Darray.extents; kinds = l.Layout.kinds })
                  t
            | None -> ())
        | _ -> ());
        k t
      in
      (arg, Costs.alu, reg)
  | Expr.Ref (a, subs) ->
      let (subxs, _) as subs = subscripts renv subs in
      let addr, ca = ref_addr renv a subs in
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
      let pre, fs = settle_ints renv (addr :: Array.to_list subxs) in
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
          | Some d when d.Darray.reshaped -> regd t
          | _ -> k t
      in
      (arg, ca, reg)
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
            | Darray.Normal { base } -> base
            | Darray.Reshaped { meta_base; _ } -> meta_base
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

let compile_routine g (name : string) (pr : Prog.routine) : k =
  let renv =
    {
      g;
      env = pr.Prog.env;
      rname = name;
      slots = Hashtbl.create 32;
      ni = 0;
      nf = 0;
      aslots = Hashtbl.create 8;
      na = 0;
      in_par = false;
    }
  in
  let r = pr.Prog.env.Sema.routine in
  (* pre-create slots for declared scalars so types are right *)
  List.iter
    (fun (v : Decl.vdecl) ->
      if v.Decl.vdims = [] then ignore (slot_for renv v.Decl.vname ~ty:v.Decl.vty)
      else ignore (arr_slot renv v.Decl.vname))
    r.Decl.rdecls;
  let bodyc = compile_body renv pr.Prog.code.Decl.rbody in
  (* formal binding plan *)
  let formal_plan =
    List.map
      (fun p ->
        match Sema.find_sym pr.Prog.env p with
        | Some (Sema.SArray ai) ->
            (* dim expressions may reference formal scalars (adjustable) *)
            let dims =
              List.map2
                (fun lo hi ->
                  (fst (compile_int renv lo), fst (compile_int renv hi)))
                ai.Sema.ai_los ai.Sema.ai_his
            in
            let kinds =
              Option.map
                (fun (d : Decl.dist) -> Array.of_list d.Decl.dkinds)
                ai.Sema.ai_dist
            in
            `Array (p, arr_slot renv p, ai.Sema.ai_ty, dims, kinds)
        | Some (Sema.SScalar (ty, _)) -> `Scalar (p, slot_for renv p ~ty, ty)
        | _ -> Eff.error "routine %s: formal %s undeclared" name p)
      r.Decl.rparams
  in
  (* static template for non-formal arrays *)
  let formals_set = r.Decl.rparams in
  let template = Array.make (max 1 renv.na) Frame.dummy_abind in
  Hashtbl.iter
    (fun aname slot ->
      if not (List.mem aname formals_set) then
        match static_abind g pr.Prog.env aname with
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
                 settle_ints renv (List.map fst dims @ List.map snd dims)
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
                         | Frame.Awhole ({ Frame.ab_darr = Some d; _ } as ab)
                           when d.Darray.reshaped ->
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
        | `Scalar (_, SInt i, _), Frame.Ai v -> frame.Frame.ints.(i) <- v
        | `Scalar (_, SInt i, _), Frame.Af v -> frame.Frame.ints.(i) <- int_of_float v
        | `Scalar (_, SFloat i, _), Frame.Af v -> frame.Frame.floats.(i) <- v
        | `Scalar (_, SFloat i, _), Frame.Ai v -> frame.Frame.floats.(i) <- float_of_int v
        | `Scalar (p, _, _), _ -> Eff.error "%s: argument %s: scalar expected" name p
        | `Array _, _ -> ())
      formal_plan;
    body t

let compile_all g =
  Prog.iter g.prog (fun name pr ->
      Hashtbl.replace g.entries name (compile_routine g name pr))

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

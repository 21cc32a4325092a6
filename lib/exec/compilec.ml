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

exception Return_local

type ctx = { ws : Eff.ws; frame : Frame.t }

type rt_arg = Ai of int | Af of float | Awhole of Frame.abind | Aelem of int

type entry = Eff.ws -> rt_arg list -> unit

type g = {
  prog : Prog.t;
  rt : Rt.t;
  checks : bool;
  bounds : bool;
  static_abind : routine:string -> array:string -> Frame.abind option;
  print : string -> unit;
  entries : (string, entry) Hashtbl.t;
  mutable cycle_limit : int;
}

let create prog ~rt ~checks ~bounds ~static_abind ~print =
  {
    prog;
    rt;
    checks;
    bounds;
    static_abind;
    print;
    entries = Hashtbl.create 16;
    cycle_limit = max_int;
  }

let set_cycle_limit g n = g.cycle_limit <- n

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
(* Memory helpers (word addresses; the engine converts to bytes) *)

let load_int g (addrf : ctx -> int) ctx =
  let addr = addrf ctx in
  Effect.perform (Eff.Mem (ctx.ws, addr, false));
  Heap.get_int g.rt.Rt.heap addr

let load_real g (addrf : ctx -> int) ctx =
  let addr = addrf ctx in
  Effect.perform (Eff.Mem (ctx.ws, addr, false));
  Heap.get_real g.rt.Rt.heap addr

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

(* column-major word address of a subscript list in a plain view; with
   [bounds], an out-of-range subscript is a located error reporting the
   value already computed *)
let plain_addr ~bounds name (ab : Frame.abind) subfs ctx =
  let addr = ref ab.Frame.ab_base in
  for i = 0 to Array.length subfs - 1 do
    let s = subfs.(i) ctx in
    let x = s - ab.Frame.ab_lowers.(i) in
    if bounds && (x < 0 || x >= ab.Frame.ab_extents.(i)) then
      Eff.error "array %s: subscript %d out of bounds in dim %d" name s (i + 1);
    addr := !addr + (x * ab.Frame.ab_strides.(i))
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

(* ------------------------------------------------------------------ *)
(* Expression compilation: each node is compiled once, into a closure of
   its own type and its static cost *)

type value = I of (ctx -> int) | F of (ctx -> float)

(* the two coercions; a conversion costs one ALU op *)
let to_int = function
  | I f, c -> (f, c)
  | F f, c -> ((fun ctx -> int_of_float (f ctx)), c + Costs.alu)

let to_float = function
  | F f, c -> (f, c)
  | I f, c -> ((fun ctx -> float_of_int (f ctx)), c + Costs.alu)

let is_real = function F _, _ -> true | I _, _ -> false

(* the closures of several compiled operands and their summed cost *)
let sum_costs cs = (List.map fst cs, List.fold_left (fun acc (_, c) -> acc + c) 0 cs)

let load renv ty addrf =
  match ty with
  | Types.Tint -> I (load_int renv.g addrf)
  | Types.Treal -> F (load_real renv.g addrf)

let rec compile renv (e : Expr.t) : value * int =
  match e with
  | Expr.Int n -> (I (fun _ -> n), 0)
  | Expr.Real x -> (F (fun _ -> x), 0)
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
      | SInt i -> (I (fun ctx -> ctx.frame.Frame.ints.(i)), 0)
      | SFloat i -> (F (fun ctx -> ctx.frame.Frame.floats.(i)), 0))
  | Expr.Neg a -> (
      match compile renv a with
      | I f, c -> (I (fun ctx -> -f ctx), c + Costs.alu)
      | F f, c -> (F (fun ctx -> -.f ctx), c + Costs.alu))
  | Expr.Bin (op, a, b) -> (
      let ra = compile renv a in
      let rb = compile renv b in
      match (ra, rb) with
      | (I fa, ca), (I fb, cb) -> (
          let c = ca + cb in
          match op with
          | Expr.Add -> (I (fun ctx -> fa ctx + fb ctx), c + Costs.alu)
          | Expr.Sub -> (I (fun ctx -> fa ctx - fb ctx), c + Costs.alu)
          | Expr.Mul -> (I (fun ctx -> fa ctx * fb ctx), c + Costs.alu)
          | Expr.Div ->
              ( I
                  (fun ctx ->
                    let d = fb ctx in
                    if d = 0 then Eff.error "integer division by zero";
                    fa ctx / d),
                c + Costs.int_div )
          | Expr.Pow ->
              ( I
                  (fun ctx ->
                    let base = fa ctx and e = fb ctx in
                    if e < 0 then Eff.error "negative integer exponent";
                    let rec pw acc n =
                      if n = 0 then acc else pw (acc * base) (n - 1)
                    in
                    pw 1 e),
                c + Costs.pow ))
      | _ -> (
          let fa, ca = to_float ra and fb, cb = to_float rb in
          let c = ca + cb in
          match op with
          | Expr.Add -> (F (fun ctx -> fa ctx +. fb ctx), c + Costs.alu)
          | Expr.Sub -> (F (fun ctx -> fa ctx -. fb ctx), c + Costs.alu)
          | Expr.Mul -> (F (fun ctx -> fa ctx *. fb ctx), c + Costs.alu)
          | Expr.Div -> (F (fun ctx -> fa ctx /. fb ctx), c + Costs.real_div)
          | Expr.Pow -> (F (fun ctx -> Float.pow (fa ctx) (fb ctx)), c + Costs.pow)))
  | Expr.Rel (op, a, b) ->
      let ra = compile renv a in
      let rb = compile renv b in
      let test, c =
        match (ra, rb) with
        | (I fa, ca), (I fb, cb) ->
            let cmp : int -> int -> bool =
              match op with
              | Expr.Lt -> ( < )
              | Expr.Le -> ( <= )
              | Expr.Gt -> ( > )
              | Expr.Ge -> ( >= )
              | Expr.Eq -> ( = )
              | Expr.Ne -> ( <> )
            in
            ((fun ctx -> cmp (fa ctx) (fb ctx)), ca + cb)
        | _ ->
            let fa, ca = to_float ra and fb, cb = to_float rb in
            let cmp : float -> float -> bool =
              match op with
              | Expr.Lt -> ( < )
              | Expr.Le -> ( <= )
              | Expr.Gt -> ( > )
              | Expr.Ge -> ( >= )
              | Expr.Eq -> ( = )
              | Expr.Ne -> ( <> )
            in
            ((fun ctx -> cmp (fa ctx) (fb ctx)), ca + cb)
      in
      (I (fun ctx -> if test ctx then 1 else 0), c + Costs.alu)
  | Expr.Log (op, a, b) ->
      let fa, ca = compile_int renv a in
      let fb, cb = compile_int renv b in
      let f =
        match op with
        | Expr.And -> fun ctx -> if fa ctx <> 0 && fb ctx <> 0 then 1 else 0
        | Expr.Or -> fun ctx -> if fa ctx <> 0 || fb ctx <> 0 then 1 else 0
      in
      (I f, ca + cb + Costs.alu)
  | Expr.Not a ->
      let f, c = compile_int renv a in
      (I (fun ctx -> if f ctx = 0 then 1 else 0), c + Costs.alu)
  | Expr.Idiv (impl, a, b) ->
      let fa, ca = compile_int renv a in
      let fb, cb = compile_int renv b in
      ( I
          (fun ctx ->
            let d = fb ctx in
            if d <= 0 then Eff.error "idiv by non-positive value";
            Ddsm_dist.Intmath.fdiv (fa ctx) d),
        ca + cb + div_cost impl )
  | Expr.Imod (impl, a, b) ->
      let fa, ca = compile_int renv a in
      let fb, cb = compile_int renv b in
      ( I
          (fun ctx ->
            let d = fb ctx in
            if d <= 0 then Eff.error "imod by non-positive value";
            Ddsm_dist.Intmath.fmod (fa ctx) d),
        ca + cb + div_cost impl )
  | Expr.GatherBase id ->
      (* scratch base of the gather site; defined once the dominating
         [Stmt.Gather] has executed. Free: the executor's address math
         around it is charged through the enclosing [AbsLoad]. *)
      let key = renv.rname ^ "#" ^ string_of_int id in
      let rt = renv.g.rt in
      let site = ref None in
      ( I
          (fun _ ->
            let s =
              match !site with
              | Some s -> s
              | None ->
                  let s = Rt.gather_site rt ~key in
                  site := Some s;
                  s
            in
            if s.Rt.gs_scratch < 0 then
              Eff.error "internal: gather site %s read before its inspector"
                key;
            s.Rt.gs_scratch),
        0 )
  | Expr.Meta (name, field) ->
      let aslot = arr_slot renv name in
      ( I
          (load_int renv.g (fun ctx ->
               meta_addr name ctx.frame.Frame.arrays.(aslot) field)),
        0 )
  | Expr.BaseOf (name, p) ->
      let aslot = arr_slot renv name in
      let fp, cp = compile_int renv p in
      ( I
          (load_int renv.g (fun ctx ->
               let ab = ctx.frame.Frame.arrays.(aslot) in
               match ab.Frame.ab_darr with
               | None -> Eff.error "array %s has no descriptor (BaseOf)" name
               | Some d ->
                   let nd = Array.length d.Darray.extents in
                   Darray.meta_base d + Darray.Meta.bases_off ~ndims:nd + fp ctx)),
        cp + Costs.addressing )
  | Expr.AbsLoad (ty, a) ->
      let fa, ca = compile_addr renv a in
      (load renv ty fa, ca + Costs.addressing)
  | Expr.Ref (a, subs) ->
      let addrf, c = ref_addr renv a (subscripts renv subs) in
      (load renv (array_elem_ty renv a) addrf, c)
  | Expr.Intrin (nm, args) -> compile_intrin renv nm args

and compile_int renv e = to_int (compile renv e)
and compile_float renv e = to_float (compile renv e)

and div_cost = function Expr.Hw -> Costs.int_div | Expr.Fp -> Costs.fp_div

(* an integer address expression, its adds and multiplies discounted *)
and compile_addr renv e =
  let f, c = compile_int renv e in
  (f, max 0 (c - alu_discount e))

and subscripts renv subs =
  let fs, c = sum_costs (List.map (compile_addr renv) subs) in
  (Array.of_list fs, c)

(* column-major address of an array reference through its runtime binding;
   reshaped descriptors fall back to the runtime oracle (call-argument
   subscript positions and defensive paths) *)
and ref_addr renv a (subfs, subcost) : (ctx -> int) * int =
  let aslot = arr_slot renv a in
  let nd = Array.length subfs in
  let bounds = renv.g.bounds in
  let f ctx =
    let ab = ctx.frame.Frame.arrays.(aslot) in
    match ab.Frame.ab_darr with
    | Some d when d.Darray.reshaped ->
        (* runtime oracle with the unoptimized Table 1 cost *)
        let idx = Array.init nd (fun i -> subfs.(i) ctx) in
        ctx.ws.Eff.clock <- ctx.ws.Eff.clock + oracle_cost d;
        (try Darray.word_addr d idx
         with Invalid_argument m -> Eff.error "%s" m)
    | _ -> plain_addr ~bounds a ab subfs ctx
  in
  (f, subcost + Costs.addressing)

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
      (I (fun _ -> n), cost)
  | "dsm_myproc" -> (I (fun ctx -> ctx.ws.Eff.proc), cost)
  | "dsm_numprocs" | "dsm_chunksize" | "dsm_this_lo" | "dsm_this_hi"
  | "dsm_owner" | "dsm_distribution" | "dsm_isreshaped" ->
      compile_dsm renv nm args cost
  | "int" | "nint" -> (
      match args with
      | [ a ] ->
          let f, c = compile_float renv a in
          if nm = "int" then (I (fun ctx -> int_of_float (f ctx)), c + cost)
          else (I (fun ctx -> int_of_float (Float.round (f ctx))), c + cost)
      | _ -> Eff.error "%s arity" nm)
  | _ ->
      let rs = List.map (compile renv) args in
      let real_result =
        match Intrinsics.lookup nm with
        | Some { Intrinsics.result = `Real; _ } -> true
        | _ -> false
      in
      if real_result || List.exists is_real rs then begin
        let fs, argcost = sum_costs (List.map to_float rs) in
        let c = argcost + cost in
        let unary op =
          match fs with
          | [ f ] -> (F (fun ctx -> op (f ctx)), c)
          | _ -> Eff.error "%s arity" nm
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
            match fs with
            | [ fa; fb ] -> (F (fun ctx -> Float.rem (fa ctx) (fb ctx)), c)
            | _ -> Eff.error "mod arity")
        | "min" ->
            ( F (fun ctx -> List.fold_left (fun acc f -> Float.min acc (f ctx)) infinity fs),
              c )
        | "max" ->
            ( F
                (fun ctx ->
                  List.fold_left (fun acc f -> Float.max acc (f ctx)) neg_infinity fs),
              c )
        | _ -> Eff.error "unknown intrinsic %s" nm
      end
      else begin
        let fs, argcost = sum_costs (List.map to_int rs) in
        let c = argcost + cost in
        match nm with
        | "mod" -> (
            match fs with
            | [ fa; fb ] ->
                ( I
                    (fun ctx ->
                      let d = fb ctx in
                      if d = 0 then Eff.error "mod by zero";
                      fa ctx mod d),
                  c )
            | _ -> Eff.error "mod arity")
        | "min" -> (I (fun ctx -> List.fold_left (fun acc f -> min acc (f ctx)) max_int fs), c)
        | "max" -> (I (fun ctx -> List.fold_left (fun acc f -> max acc (f ctx)) min_int fs), c)
        | "abs" -> (
            match fs with
            | [ f ] -> (I (fun ctx -> abs (f ctx)), c)
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
  let restf = List.map (fun a -> fst (compile_int renv a)) rest in
  let layout_of ctx =
    let ab = ctx.frame.Frame.arrays.(aslot) in
    match ab.Frame.ab_darr with
    | Some d -> (
        match d.Darray.layout with
        | Some l -> (d, l)
        | None -> Eff.error "%s: array %s is not distributed" nm aname)
    | None -> Eff.error "%s: array %s has no descriptor here" nm aname
  in
  let f ctx =
    let d, l = layout_of ctx in
    match (nm, restf) with
    | "dsm_numprocs", [ fdim ] -> l.Layout.grid.Grid.per_dim.(fdim ctx - 1)
    | "dsm_chunksize", [ fdim ] -> l.Layout.dims.(fdim ctx - 1).Dim_map.block
    | ("dsm_this_lo" | "dsm_this_hi"), [ fdim ] -> (
        let dim = fdim ctx - 1 in
        let total = Layout.nprocs l in
        let p = ctx.ws.Eff.proc mod total in
        let ow = Grid.delinear l.Layout.grid p in
        let ranges = Dim_map.portion_ranges l.Layout.dims.(dim) ~proc:ow.(dim) in
        match ranges with
        | [] -> 0
        | (lo, _) :: _ when nm = "dsm_this_lo" -> lo + d.Darray.lower.(dim)
        | rs ->
            let _, hi = List.nth rs (List.length rs - 1) in
            hi + d.Darray.lower.(dim))
    | "dsm_owner", [ fdim; fidx ] ->
        let dim = fdim ctx - 1 in
        Dim_map.owner l.Layout.dims.(dim) (fidx ctx - d.Darray.lower.(dim))
    | "dsm_distribution", [ fdim ] -> (
        match l.Layout.kinds.(fdim ctx - 1) with
        | K.Star -> 0
        | K.Block -> 1
        | K.Cyclic -> 2
        | K.Cyclic_k _ -> 3)
    | "dsm_isreshaped", [] -> if d.Darray.reshaped then 1 else 0
    | _ -> Eff.error "%s: bad arguments" nm
  in
  (I f, cost + List.length restf)

(* ------------------------------------------------------------------ *)
(* Statements *)

let charge c (ws : Eff.ws) = ws.Eff.clock <- ws.Eff.clock + c

let rec compile_body renv stmts : ctx -> unit =
  let fs = Array.of_list (List.map (compile_stmt renv) stmts) in
  fun ctx ->
    for i = 0 to Array.length fs - 1 do
      fs.(i) ctx
    done

and compile_stmt renv (t : Stmt.t) : ctx -> unit =
  match t.Stmt.s with
  | Stmt.Assign (Stmt.LVar x, e) -> (
      let r = compile renv e in
      match slot_for renv x ~ty:(if is_real r then Types.Treal else Types.Tint) with
      | SInt i ->
          let f, c = to_int r in
          let c = c + Costs.assign in
          fun ctx ->
            charge c ctx.ws;
            ctx.frame.Frame.ints.(i) <- f ctx
      | SFloat i ->
          let f, c = to_float r in
          let c = c + Costs.assign in
          fun ctx ->
            charge c ctx.ws;
            ctx.frame.Frame.floats.(i) <- f ctx)
  | Stmt.Assign (Stmt.LRef (a, subs), e) ->
      let addr = ref_addr renv a (subscripts renv subs) in
      let aslot = arr_slot renv a in
      (* write-generation bump: cached gather schedules over this array
         key on the version and must re-inspect after any visible store *)
      let bump ctx =
        match ctx.frame.Frame.arrays.(aslot).Frame.ab_darr with
        | Some d -> Darray.bump_version d
        | None -> ()
      in
      compile_store renv ~name:a (array_elem_ty renv a) addr e ~after:bump
  | Stmt.AbsStore (ty, aexp, e) ->
      let addrf, ca = compile_addr renv aexp in
      compile_store renv ~name:"<lowered>" ty (addrf, ca + Costs.addressing) e
        ~after:ignore
  | Stmt.Do d -> (
      let flo, clo = compile_int renv d.Stmt.lo in
      let fhi, chi = compile_int renv d.Stmt.hi in
      let fstep, cstep =
        match d.Stmt.step with
        | None -> ((fun _ -> 1), 0)
        | Some s -> compile_int renv s
      in
      let head_cost = clo + chi + cstep + Costs.assign in
      match slot_for renv d.Stmt.var ~ty:Types.Tint with
      | SFloat _ -> Eff.error "loop variable %s is not an integer" d.Stmt.var
      | SInt slot ->
          let body = compile_body renv d.Stmt.body in
          let g = renv.g in
          fun ctx ->
            charge head_cost ctx.ws;
            let lo = flo ctx and hi = fhi ctx and step = fstep ctx in
            if step = 0 then Eff.error "do %s: zero step" d.Stmt.var;
            let ints = ctx.frame.Frame.ints in
            ints.(slot) <- lo;
            if step > 0 then
              while ints.(slot) <= hi do
                if ctx.ws.Eff.clock > g.cycle_limit then
                  raise (Eff.Cycle_limit g.cycle_limit);
                charge Costs.loop_iter ctx.ws;
                body ctx;
                ints.(slot) <- ints.(slot) + step
              done
            else
              while ints.(slot) >= hi do
                if ctx.ws.Eff.clock > g.cycle_limit then
                  raise (Eff.Cycle_limit g.cycle_limit);
                charge Costs.loop_iter ctx.ws;
                body ctx;
                ints.(slot) <- ints.(slot) + step
              done)
  | Stmt.If (cond, th, el) ->
      let fc, cc = compile_int renv cond in
      let fth = compile_body renv th and fel = compile_body renv el in
      fun ctx ->
        charge (cc + Costs.alu) ctx.ws;
        if fc ctx <> 0 then fth ctx else fel ctx
  | Stmt.Call (name, args) -> compile_call renv name args
  | Stmt.Doacross _ -> Eff.error "internal: doacross reached the VM unlowered"
  | Stmt.Redistribute rd ->
      let kinds = Array.of_list rd.Stmt.rkinds in
      let onto = Option.map Array.of_list rd.Stmt.ronto in
      let procs = rd.Stmt.rprocs in
      let qname = qualified renv.env rd.Stmt.rarray in
      fun ctx -> (
        match Rt.redistribute renv.g.rt ~name:qname ~kinds ?onto ?procs () with
        | Ok ({ Rt.rounds; round_words; retries; _ } as result) -> (
            (* failed attempts cost backoff time; the data movement itself
               is charged by the round schedule — rounds run back to back,
               transfers within a round in parallel. A fallback costs only
               the retries (nothing moves, the old placement is kept). *)
            charge
              ((retries * Costs.redistribute_retry)
              + Costs.redistribute_scheduled ~rounds ~round_words)
              ctx.ws;
            let { Eff.proc; clock = now; _ } = ctx.ws in
            match renv.g.rt.Rt.observe with
            | None -> ()
            | Some observe ->
                observe (Rt.Redistribute { array = qname; result; proc; now }))
        | Error m -> Eff.error "%s" m)
  | Stmt.Gather gth -> compile_gather renv gth
  | Stmt.Continue -> fun _ -> ()
  | Stmt.Barrier ->
      fun ctx ->
        Rt.note_barrier renv.g.rt ~proc:ctx.ws.Eff.proc ~now:ctx.ws.Eff.clock
  | Stmt.Return -> fun _ -> raise Return_local
  | Stmt.Print items ->
      let fs =
        List.map
          (fun e ->
            match e with
            | Expr.Str s -> fun _ -> s
            | _ -> (
                match compile renv e with
                | I f, _ -> fun ctx -> string_of_int (f ctx)
                | F f, _ -> fun ctx -> Printf.sprintf "%.10g" (f ctx)))
          items
      in
      fun ctx ->
        renv.g.print (String.concat " " (List.map (fun f -> f ctx) fs))
  | Stmt.Par p ->
      let region =
        Printf.sprintf "%s:%d" renv.rname t.Stmt.loc.Loc.line
      in
      let (myp_slot, np_slot) =
        match (slot_for renv "myp$" ~ty:Types.Tint, slot_for renv "np$" ~ty:Types.Tint) with
        | SInt a, SInt b -> (a, b)
        | _ -> assert false
      in
      let body = compile_body renv p.Stmt.pbody in
      fun ctx ->
        if ctx.ws.Eff.depth > 0 then begin
          (* nested parallelism runs single-worker (documented) *)
          ctx.frame.Frame.ints.(myp_slot) <- 0;
          ctx.frame.Frame.ints.(np_slot) <- 1;
          body ctx
        end
        else begin
          let n = Rt.nprocs renv.g.rt in
          let parent_frame = ctx.frame in
          Effect.perform
            (Eff.Fork
               ( ctx.ws,
                 (fun cws p ->
                   let fr = Frame.copy_scalars parent_frame in
                   fr.Frame.ints.(myp_slot) <- p;
                   fr.Frame.ints.(np_slot) <- n;
                   body { ws = cws; frame = fr }),
                 n,
                 region ))
        end

(* One store path for array elements and lowered addresses: charge,
   evaluate the value, then the address, perform the write, store, then
   [after]. A real value stored into an integer element is converted
   under [int_elem_of_real] and costs one more ALU op. *)
and compile_store renv ~name ty (addrf, ca) e ~after : ctx -> unit =
  let heap = renv.g.rt.Rt.heap in
  let build set f ce =
    let c = ca + ce + Costs.assign in
    fun ctx ->
      charge c ctx.ws;
      let v = f ctx in
      let addr = addrf ctx in
      Effect.perform (Eff.Mem (ctx.ws, addr, true));
      set heap addr v;
      after ctx
  in
  match (ty, compile renv e) with
  | Types.Treal, r ->
      let f, ce = to_float r in
      build Heap.set_real f ce
  | Types.Tint, (F f, ce) ->
      build Heap.set_int (fun ctx -> int_elem_of_real name (f ctx)) (ce + Costs.alu)
  | Types.Tint, (I f, ce) -> build Heap.set_int f ce

(* ------------------------------------------------------------------ *)
(* Inspector-executor gather (Stmt.Gather, serial context only).

   On a schedule-cache miss — keyed on (index-array version, target
   version, evaluated rectangle bounds) — the inspector walks the
   iteration rectangle once, reads the index vector through ordinary
   timed accesses, computes each referenced target address with the SAME
   base/lower/stride arithmetic as the naive reference path (bit-faithful,
   including the bounds-mode error), and bins the accesses by (source
   home, scratch home) into an all-to-all round schedule.

   On EVERY execution the current target values move into scratch: one
   bulk fetch charged by the round schedule, or — when the fault plan
   fails the fetch past the bounded retries — a per-element fallback
   through ordinary timed loads. Either way the scratch holds the same
   values, so results never depend on the fault plan. *)

and max_gather_attempts = 3

and compile_gather renv (gth : Stmt.gather) : ctx -> unit =
  let g = renv.g in
  let key = renv.rname ^ "#" ^ string_of_int gth.Stmt.g_id in
  let tslot = arr_slot renv gth.Stmt.g_target in
  let islot = arr_slot renv gth.Stmt.g_index in
  let tq = qualified renv.env gth.Stmt.g_target in
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
           let flo, _ = compile_int renv lo in
           let fhi, _ = compile_int renv hi in
           (slot, flo, fhi))
         gth.Stmt.g_dims)
  in
  let ndims = Array.length dims in
  let isubfs, isubcost = subscripts renv gth.Stmt.g_isubs in
  let scale = gth.Stmt.g_scale and off = gth.Stmt.g_off in
  let bounds = g.bounds in
  let target = gth.Stmt.g_target and index = gth.Stmt.g_index in
  let real_elems = array_elem_ty renv target = Types.Treal in
  fun ctx ->
    let rt = g.rt in
    let tab = ctx.frame.Frame.arrays.(tslot) in
    let iab = ctx.frame.Frame.arrays.(islot) in
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
    let los = Array.make (max 1 ndims) 0 and his = Array.make (max 1 ndims) 0 in
    let nslots = ref 1 in
    Array.iteri
      (fun d (_, flo, fhi) ->
        let lo = flo ctx and hi = fhi ctx in
        los.(d) <- lo;
        his.(d) <- hi;
        nslots := !nslots * max 0 (hi - lo + 1))
      dims;
    let nslots = !nslots in
    let site = Rt.gather_site rt ~key in
    if nslots = 0 then begin
      (* empty rectangle: the executor never runs, but its [GatherBase]
         is still compiled — leave a harmless base in place *)
      if site.Rt.gs_scratch < 0 then site.Rt.gs_scratch <- 0
    end
    else begin
      let observe_gather step ~retries =
        match rt.Rt.observe with
        | None -> ()
        | Some observe ->
            let { Eff.proc; clock = now; _ } = ctx.ws in
            let rounds = site.Rt.gs_rounds and slots = nslots in
            observe (Rt.Gather { site = key; step; slots; rounds; retries; proc; now })
      in
      let keynow =
        (idd.Darray.version, td.Darray.version, Array.append los his)
      in
      (match site.Rt.gs_key with
      | Some k when k = keynow -> ()
      | _ ->
          (* cache miss: inspect. The index vector is read through
             ordinary timed accesses — inspection is real work the
             benchmark must see; repeated sweeps then hit the cache. *)
          rt.Rt.gather_inspections <- rt.Rt.gather_inspections + 1;
          if site.Rt.gs_cap < nslots then begin
            site.Rt.gs_scratch <-
              Rt.alloc_gather_scratch rt ~src_array:tq ~words:nslots;
            site.Rt.gs_cap <- nslots
          end;
          if Array.length site.Rt.gs_addrs < nslots then
            site.Rt.gs_addrs <- Array.make nslots 0;
          let addrs = site.Rt.gs_addrs in
          let ints = ctx.frame.Frame.ints in
          let mem = rt.Rt.mem in
          let scratch = site.Rt.gs_scratch in
          (* (src node, dst node) -> words of that transfer *)
          let pairs : (int * int, int ref) Hashtbl.t = Hashtbl.create 16 in
          let slot = ref 0 in
          let rec walk d =
            if d = ndims then begin
              charge (Costs.gather_inspect + isubcost) ctx.ws;
              let iaddr = plain_addr ~bounds index iab isubfs ctx in
              Effect.perform (Eff.Mem (ctx.ws, iaddr, false));
              let ival = Heap.get_int rt.Rt.heap iaddr in
              let sub = (scale * ival) + off in
              let x = sub - tab.Frame.ab_lowers.(0) in
              if bounds && (x < 0 || x >= tab.Frame.ab_extents.(0)) then
                Eff.error "array %s: subscript %d out of bounds in dim %d"
                  target sub 1;
              let taddr = tab.Frame.ab_base + (x * tab.Frame.ab_strides.(0)) in
              addrs.(!slot) <- taddr;
              let home a =
                Option.value ~default:0
                  (Memsys.home_of_addr mem (Heap.byte_of_word a))
              in
              let src = home taddr and dst = home (scratch + !slot) in
              (match Hashtbl.find_opt pairs (src, dst) with
              | Some r -> incr r
              | None -> Hashtbl.replace pairs (src, dst) (ref 1));
              incr slot
            end
            else begin
              let vslot, _, _ = dims.(d) in
              for i = los.(d) to his.(d) do
                ints.(vslot) <- i;
                walk (d + 1)
              done
            end
          in
          (* the walk drives the loop variables through the serial frame;
             restore them afterwards so the executor (and any read of the
             variables after the nest) sees exactly the naive values *)
          let saved = Array.map (fun (vslot, _, _) -> ints.(vslot)) dims in
          walk 0;
          Array.iteri (fun d (vslot, _, _) -> ints.(vslot) <- saved.(d)) dims;
          let rounds =
            Redist.rounds_of_moves
              ~r:(Ddsm_machine.Config.nnodes (Memsys.config mem))
              (Hashtbl.fold
                 (fun (src, dst) n acc -> { Redist.src; dst; words = !n } :: acc)
                 pairs [])
          in
          site.Rt.gs_rounds <- List.length rounds;
          site.Rt.gs_round_words <- Redist.round_words rounds;
          site.Rt.gs_key <- Some keynow;
          observe_gather Rt.Inspect ~retries:0);
      (* every execution: move the CURRENT target values into scratch *)
      let addrs = site.Rt.gs_addrs in
      let scratch = site.Rt.gs_scratch in
      let heap = rt.Rt.heap in
      let copy_one =
        if real_elems then fun i ->
          Heap.set_real heap (scratch + i) (Heap.get_real heap addrs.(i))
        else fun i ->
          Heap.set_int heap (scratch + i) (Heap.get_int heap addrs.(i))
      in
      let fault = Memsys.fault rt.Rt.mem in
      let rec attempt tries =
        let fetch = Rt.next_gather_fetch rt in
        if not (Ddsm_check.Fault.gather_fetch_fails fault ~fetch) then begin
          for i = 0 to nslots - 1 do
            copy_one i
          done;
          charge
            (Costs.gather_scheduled ~rounds:site.Rt.gs_rounds
               ~round_words:site.Rt.gs_round_words)
            ctx.ws;
          observe_gather Rt.Fetch ~retries:tries
        end
        else begin
          rt.Rt.gather_retries <- rt.Rt.gather_retries + 1;
          charge Costs.gather_retry ctx.ws;
          if tries + 1 < max_gather_attempts then attempt (tries + 1)
          else begin
            (* retries exhausted: per-element fallback through ordinary
               timed loads — same addresses, same values, only slower *)
            rt.Rt.gather_fallbacks <- rt.Rt.gather_fallbacks + 1;
            for i = 0 to nslots - 1 do
              Effect.perform (Eff.Mem (ctx.ws, addrs.(i), false));
              copy_one i
            done;
            observe_gather Rt.Fallback ~retries:tries
          end
        end
      in
      attempt 0
    end

(* ------------------------------------------------------------------ *)
(* Calls *)

and compile_call renv name args : ctx -> unit =
  let g = renv.g in
  match Prog.find g.prog name with
  | None -> fun _ -> Eff.error "call to undefined subroutine %s" name
  | Some callee ->
      let formals = callee.Prog.env.Sema.routine.Decl.rparams in
      if List.length formals <> List.length args then
        Eff.error "call %s: %d arguments for %d formals" name (List.length args)
          (List.length formals);
      (* per-argument: evaluator and optional argcheck registration *)
      let builders =
        List.map2
          (fun formal actual ->
            match Sema.find_sym callee.Prog.env formal with
            | Some (Sema.SArray _) -> compile_array_arg renv actual
            | Some (Sema.SScalar (ty, _)) -> (
                match ty with
                | Types.Tint ->
                    let f, c = compile_int renv actual in
                    (((fun ctx -> Ai (f ctx)), c), fun _ -> None)
                | Types.Treal ->
                    let f, c = compile_float renv actual in
                    (((fun ctx -> Af (f ctx)), c), fun _ -> None))
            | _ ->
                Eff.error "call %s: formal %s is not declared in the callee"
                  name formal)
          formals args
      in
      let argfs = List.map (fun ((f, _), _) -> f) builders in
      let regfs = List.map snd builders in
      let static_cost =
        Costs.call + List.fold_left (fun acc ((_, c), _) -> acc + c) 0 builders
      in
      fun ctx ->
        charge static_cost ctx.ws;
        let argv = List.map (fun f -> f ctx) argfs in
        let regs =
          if g.checks then
            List.filter_map
              (fun f ->
                match f ctx with
                | Some (addr, info) ->
                    charge Costs.argcheck_register ctx.ws;
                    Argcheck.register g.rt.Rt.argcheck ~addr info;
                    Some addr
                | None -> None)
              regfs
          else []
        in
        let entry =
          match Hashtbl.find_opt g.entries name with
          | Some e -> e
          | None -> Eff.error "internal: %s not compiled" name
        in
        (* not Fun.protect: an unregister underflow must surface as a plain
           runtime error on the success path, and ~finally would wrap it in
           Finally_raised *)
        (match entry ctx.ws argv with
        | () ->
            List.iter
              (fun addr ->
                match Argcheck.unregister g.rt.Rt.argcheck ~addr with
                | Ok () -> ()
                | Error m -> Eff.error "%s" m)
              regs
        | exception e ->
            List.iter
              (fun addr ->
                ignore (Argcheck.unregister g.rt.Rt.argcheck ~addr))
              regs;
            raise e)

(* array actual argument: whole array (Var) or element (Ref) *)
and compile_array_arg renv actual :
    ((ctx -> rt_arg) * int) * (ctx -> (int * Argcheck.info) option) =
  match actual with
  | Expr.Var a ->
      let aslot = arr_slot renv a in
      let evalf ctx = Awhole ctx.frame.Frame.arrays.(aslot) in
      let regf ctx =
        let ab = ctx.frame.Frame.arrays.(aslot) in
        match ab.Frame.ab_darr with
        | Some d when d.Darray.reshaped -> (
            match d.Darray.layout with
            | Some l ->
                Some
                  ( ab.Frame.ab_base,
                    Argcheck.Whole_array
                      { extents = d.Darray.extents; kinds = l.Layout.kinds } )
            | None -> None)
        | _ -> None
      in
      ((evalf, Costs.alu), regf)
  | Expr.Ref (a, subs) ->
      let (subfs, _) as subs = subscripts renv subs in
      let addrf, ca = ref_addr renv a subs in
      let aslot = arr_slot renv a in
      let evalf ctx =
        (* the callee receives a bare address (its binding has no
           descriptor), so any store it makes through the element is
           invisible to the version counter — bump conservatively here *)
        (match ctx.frame.Frame.arrays.(aslot).Frame.ab_darr with
        | Some d -> Darray.bump_version d
        | None -> ());
        Aelem (addrf ctx)
      in
      let regf ctx =
        let ab = ctx.frame.Frame.arrays.(aslot) in
        match ab.Frame.ab_darr with
        | Some d when d.Darray.reshaped ->
            let addr = addrf ctx in
            let idx = Array.map (fun f -> f ctx) subfs in
            Some (addr, Argcheck.Portion { words = Darray.portion_run d idx })
        | _ -> None
      in
      ((evalf, ca), regf)
  | _ -> Eff.error "array argument must be an array name or an array element"

(* ------------------------------------------------------------------ *)
(* Routine entries *)

let compile_routine g (name : string) (pr : Prog.routine) : entry =
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
            let dimfs =
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
            `Array (p, arr_slot renv p, ai.Sema.ai_ty, dimfs, kinds)
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
        match g.static_abind ~routine:name ~array:aname with
        | Some ab -> template.(slot) <- ab
        | None -> ())
    renv.aslots;
  fun ws argv ->
    let frame =
      Frame.create ~n_int:renv.ni ~n_float:renv.nf ~arrays:(Array.copy template)
    in
    let ctx = { ws; frame } in
    (* bind scalars first (adjustable array dims may need them) *)
    List.iter2
      (fun plan arg ->
        match (plan, arg) with
        | `Scalar (_, SInt i, _), Ai v -> frame.Frame.ints.(i) <- v
        | `Scalar (_, SInt i, _), Af v -> frame.Frame.ints.(i) <- int_of_float v
        | `Scalar (_, SFloat i, _), Af v -> frame.Frame.floats.(i) <- v
        | `Scalar (_, SFloat i, _), Ai v -> frame.Frame.floats.(i) <- float_of_int v
        | `Scalar (p, _, _), _ -> Eff.error "%s: argument %s: scalar expected" name p
        | `Array _, _ -> ())
      formal_plan argv;
    (* then bind arrays *)
    List.iter2
      (fun plan arg ->
        match plan with
        | `Scalar _ -> ()
        | `Array (p, aslot, fty, dimfs, kinds) -> (
            let lowers = Array.of_list (List.map (fun (lo, _) -> lo ctx) dimfs) in
            let his = Array.of_list (List.map (fun (_, hi) -> hi ctx) dimfs) in
            let extents = Array.map2 (fun h l -> h - l + 1) his lowers in
            let strides = Frame.column_strides extents in
            let ab =
              match arg with
              | Awhole ({ Frame.ab_darr = Some d; _ } as ab) when d.Darray.reshaped ->
                  (* reshaped whole-array pass: keep the descriptor *)
                  ab
              | Awhole ab ->
                  {
                    ab with
                    Frame.ab_lowers = lowers;
                    ab_strides = strides;
                    ab_extents = extents;
                    ab_ty = fty;
                  }
              | Aelem addr ->
                  {
                    Frame.ab_darr = None;
                    ab_base = addr;
                    ab_lowers = lowers;
                    ab_strides = strides;
                    ab_extents = extents;
                    ab_ty = fty;
                  }
              | Ai _ | Af _ -> Eff.error "%s: argument %s: array expected" name p
            in
            frame.Frame.arrays.(aslot) <- ab;
            if g.checks then begin
              charge Costs.argcheck_lookup ws;
              match
                Argcheck.check_entry g.rt.Rt.argcheck ~addr:ab.Frame.ab_base
                  ~name:p ~formal_extents:extents ?formal_kinds:kinds ()
              with
              | Ok () -> ()
              | Error m -> Eff.error "%s" m
            end))
      formal_plan argv;
    try bodyc ctx with Return_local -> ()

let compile_all g =
  Prog.iter g.prog (fun name pr ->
      Hashtbl.replace g.entries name (compile_routine g name pr))

let run_main g ws =
  match Hashtbl.find_opt g.entries g.prog.Prog.main with
  | Some entry -> entry ws []
  | None -> Eff.error "main routine %s not compiled" g.prog.Prog.main

type binop = Add | Sub | Mul | Div | Pow
type relop = Lt | Le | Gt | Ge | Eq | Ne
type logop = And | Or
type div_impl = Hw | Fp
type meta_field = Procs of int | Block of int | Stor of int

type t =
  | Int of int
  | Real of float
  | Str of string
  | Var of string
  | Ref of string * t list
  | Bin of binop * t * t
  | Rel of relop * t * t
  | Log of logop * t * t
  | Not of t
  | Neg of t
  | Intrin of string * t list
  | Idiv of div_impl * t * t
  | Imod of div_impl * t * t
  | Meta of string * meta_field
  | BaseOf of string * t
  | AbsLoad of Types.ty * t
  | GatherBase of int
      (* word base of gather site [id]'s scratch buffer; defined once the
         site's Stmt.Gather has executed (the inspector pass emits that
         Gather dominating every use) *)

(* Constructor arguments are evaluated right to left, so [f] sees the
   right operand first; callers that draw fresh names depend on it. *)
let map_children f e =
  match e with
  | Int _ | Real _ | Str _ | Var _ | Meta _ | GatherBase _ -> e
  | Ref (a, subs) -> Ref (a, List.map f subs)
  | Bin (op, x, y) -> Bin (op, f x, f y)
  | Rel (op, x, y) -> Rel (op, f x, f y)
  | Log (op, x, y) -> Log (op, f x, f y)
  | Not x -> Not (f x)
  | Neg x -> Neg (f x)
  | Intrin (n, args) -> Intrin (n, List.map f args)
  | Idiv (i, x, y) -> Idiv (i, f x, f y)
  | Imod (i, x, y) -> Imod (i, f x, f y)
  | BaseOf (a, x) -> BaseOf (a, f x)
  | AbsLoad (ty, x) -> AbsLoad (ty, f x)

let map f e =
  let rec go e = f (map_children go e) in
  go e

let iter f e =
  let rec go e =
    f e;
    match e with
    | Int _ | Real _ | Str _ | Var _ | Meta _ | GatherBase _ -> ()
    | Ref (_, subs) | Intrin (_, subs) -> List.iter go subs
    | Bin (_, x, y) | Rel (_, x, y) | Log (_, x, y) | Idiv (_, x, y) | Imod (_, x, y)
      ->
        go x;
        go y
    | Not x | Neg x | BaseOf (_, x) | AbsLoad (_, x) -> go x
  in
  go e

let exists p e =
  let found = ref false in
  iter (fun x -> if p x then found := true) e;
  !found

let equal (a : t) (b : t) = a = b

let subst_var x e body =
  map (function Var y when y = x -> e | other -> other) body

let free_vars e =
  let acc = ref [] in
  iter (function Var x -> if not (List.mem x !acc) then acc := x :: !acc | _ -> ()) e;
  List.rev !acc

let rec affine_in v e =
  match e with
  | Var x when x = v -> Some (1, 0)
  | Int n -> Some (0, n)
  | Neg x -> Option.map (fun (s, c) -> (-s, -c)) (affine_in v x)
  | Bin (Add, a, b) -> (
      match (affine_in v a, affine_in v b) with
      | Some (s1, c1), Some (s2, c2) -> Some (s1 + s2, c1 + c2)
      | _ -> None)
  | Bin (Sub, a, b) -> (
      match (affine_in v a, affine_in v b) with
      | Some (s1, c1), Some (s2, c2) -> Some (s1 - s2, c1 - c2)
      | _ -> None)
  | Bin (Mul, a, b) -> (
      match (affine_in v a, affine_in v b) with
      | Some (0, k), Some (s, c) | Some (s, c), Some (0, k) ->
          Some (k * s, k * c)
      | _ -> None)
  | _ -> None

let is_const = function Int _ | Real _ -> true | _ -> false

let rec const_int = function
  | Int n -> Some n
  | Neg e -> Option.map (fun n -> -n) (const_int e)
  | Bin (op, a, b) -> (
      match (const_int a, const_int b) with
      | Some x, Some y -> (
          match op with
          | Add -> Some (x + y)
          | Sub -> Some (x - y)
          | Mul -> Some (x * y)
          | Div -> if y <> 0 then Some (x / y) else None
          | Pow ->
              if y >= 0 then (
                let rec pw acc n = if n = 0 then acc else pw (acc * x) (n - 1) in
                Some (pw 1 y))
              else None)
      | _ -> None)
  | _ -> None

let simplify e =
  map
    (fun e ->
      match e with
      | Bin (Add, x, Int 0) | Bin (Add, Int 0, x) -> x
      | Bin (Sub, x, Int 0) -> x
      | Bin (Mul, x, Int 1) | Bin (Mul, Int 1, x) -> x
      | Bin (Mul, _, Int 0) | Bin (Mul, Int 0, _) -> Int 0
      | Bin (Div, x, Int 1) -> x
      | Idiv (_, x, Int 1) -> x
      | Imod (_, _, Int 1) -> Int 0
      | Neg (Int n) -> Int (-n)
      | Bin _ -> ( match const_int e with Some n -> Int n | None -> e)
      | _ -> e)
    e

let pp_binop ppf op =
  Format.pp_print_string ppf
    (match op with Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Pow -> "**")

let pp_relop ppf op =
  Format.pp_print_string ppf
    (match op with
    | Lt -> ".lt." | Le -> ".le." | Gt -> ".gt." | Ge -> ".ge."
    | Eq -> ".eq." | Ne -> ".ne.")

let pp_meta ppf = function
  | Procs d -> Format.fprintf ppf "procs#%d" d
  | Block d -> Format.fprintf ppf "block#%d" d
  | Stor d -> Format.fprintf ppf "stor#%d" d

let rec pp ppf e =
  let plist ppf es =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      pp ppf es
  in
  match e with
  | Int n -> Format.pp_print_int ppf n
  | Real f -> Format.fprintf ppf "%g" f
  | Str s -> Format.fprintf ppf "%S" s
  | Var x -> Format.pp_print_string ppf x
  | Ref (a, subs) -> Format.fprintf ppf "%s(%a)" a plist subs
  | Bin (op, x, y) -> Format.fprintf ppf "(%a %a %a)" pp x pp_binop op pp y
  | Rel (op, x, y) -> Format.fprintf ppf "(%a %a %a)" pp x pp_relop op pp y
  | Log (And, x, y) -> Format.fprintf ppf "(%a .and. %a)" pp x pp y
  | Log (Or, x, y) -> Format.fprintf ppf "(%a .or. %a)" pp x pp y
  | Not x -> Format.fprintf ppf "(.not. %a)" pp x
  | Neg x -> Format.fprintf ppf "(-%a)" pp x
  | Intrin (n, args) -> Format.fprintf ppf "%s(%a)" n plist args
  | Idiv (Hw, x, y) -> Format.fprintf ppf "idiv(%a, %a)" pp x pp y
  | Idiv (Fp, x, y) -> Format.fprintf ppf "idiv.fp(%a, %a)" pp x pp y
  | Imod (Hw, x, y) -> Format.fprintf ppf "imod(%a, %a)" pp x pp y
  | Imod (Fp, x, y) -> Format.fprintf ppf "imod.fp(%a, %a)" pp x pp y
  | Meta (a, f) -> Format.fprintf ppf "%s.%a" a pp_meta f
  | BaseOf (a, x) -> Format.fprintf ppf "%s.base[%a]" a pp x
  | AbsLoad (ty, x) ->
      Format.fprintf ppf "load.%s[%a]"
        (match ty with Types.Tint -> "i" | Types.Treal -> "r")
        pp x
  | GatherBase id -> Format.fprintf ppf "gather#%d.base" id

let to_string e = Format.asprintf "%a" pp e

(** Expressions.

    The surface language produces the first group of constructors. The
    compiler-internal group is introduced by the transformation passes of
    §4.3/§7: explicit integer division/modulo with a chosen implementation
    (hardware, ~35 cycles on the R10000, or the §7.3 floating-point-assisted
    route, ~11 cycles), loads from a reshaped array's descriptor block, the
    indirect load of a processor-portion base pointer, and raw loads at
    computed word addresses (the transformed reshaped references). *)

type binop = Add | Sub | Mul | Div | Pow
type relop = Lt | Le | Gt | Ge | Eq | Ne
type logop = And | Or

type div_impl =
  | Hw  (** hardware integer divide *)
  | Fp  (** simulated in software using the floating-point unit (§7.3) *)

type meta_field =
  | Procs of int  (** processors assigned to dimension [d] *)
  | Block of int  (** block/chunk size of dimension [d] *)
  | Stor of int  (** per-processor storage extent of dimension [d] *)

type t =
  | Int of int
  | Real of float
  | Str of string  (** only in print statements *)
  | Var of string
  | Ref of string * t list  (** array element [A(e1,...,en)] *)
  | Bin of binop * t * t
  | Rel of relop * t * t
  | Log of logop * t * t
  | Not of t
  | Neg of t
  | Intrin of string * t list  (** intrinsic function call *)
  (* compiler-internal: *)
  | Idiv of div_impl * t * t
  | Imod of div_impl * t * t
  | Meta of string * meta_field  (** descriptor-block load for array *)
  | BaseOf of string * t  (** processor-pointer-array load: base of portion [e] of array *)
  | AbsLoad of Types.ty * t  (** load the word at address [e] *)
  | GatherBase of int
      (** word base of gather site [id]'s scratch buffer (inspector–executor
          transform); defined once the site's [Stmt.Gather] has executed *)

val map_children : (t -> t) -> t -> t
(** Rebuild the node with [f] applied to each direct subexpression (the
    right operand of a binary node first). A leaf is returned physically
    unchanged. *)

val map : (t -> t) -> t -> t
(** Bottom-up rewrite: applies the function to each node after rewriting its
    children. *)

val iter : (t -> unit) -> t -> unit
val exists : (t -> bool) -> t -> bool
val equal : t -> t -> bool
val subst_var : string -> t -> t -> t
(** [subst_var x e body] replaces [Var x] by [e]. *)

val free_vars : t -> string list
(** Variables read, without duplicates (array names not included). *)

val affine_in : string -> t -> (int * int) option
(** [affine_in v e] is [Some (s, c)] when [e] is the affine form [s*v + c]
    with literal integer [s] and [c] (the form the paper's affinity clause
    and reshaped-reference optimisations require, §3.4/§7.1). [None] when
    [e] mentions [v] non-affinely or contains non-constant terms. *)

val is_const : t -> bool
val const_int : t -> int option
(** Constant-fold to an integer if possible (handles arithmetic on [Int]). *)

val simplify : t -> t
(** Light algebraic simplification: constant folding, [x*1], [x+0], etc. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

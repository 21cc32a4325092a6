(** Semantic analysis: name/type resolution, directive legality, and the
    compile-time half of the paper's error-detection support (§6).

    Produces a per-routine environment with resolved symbols and a rewritten
    routine in which [parameter] constants are substituted, intrinsic calls
    are distinguished from array references, and every directive has been
    validated:

    - distribution directives: declared array targets, per-dimension kind
      arity, [onto] arity, no duplicate or conflicting
      [distribute]/[distribute_reshape] on one array (§3.2: an array is one
      or the other "for the duration of the program");
    - reshaped arrays must not be equivalenced (§3.2.1/§6 compile-time
      check);
    - [c$redistribute] applies to a distributed array that is not a formal
      argument, regular or reshaped (the paper's §3.3 allows regular arrays
      only; DESIGN.md §11 lifts that), with one kind per dimension and a
      well-formed [onto]/[procs] clause, and never inside a [c$doacross]
      body;
    - no routine name is defined twice in one file;
    - [affinity(i) = data(A(s*i+c))] demands a distributed array and literal
      [s >= 0] and [c] (§3.4);
    - [nest] clauses require a perfect loop nest matching the named
      variables. *)

open Ddsm_ir

type array_info = {
  ai_ty : Types.ty;
  ai_los : Expr.t list;  (** lower-bound expressions, constants substituted *)
  ai_his : Expr.t list;
  ai_const_shape : (int array * int array) option;
      (** (lowers, extents) when all bounds are literal *)
  ai_dist : Decl.dist option;
  ai_formal : bool;
  ai_common : string option;
  ai_equiv_base : string option;  (** storage aliased to this earlier array *)
}

type sym =
  | SScalar of Types.ty * bool  (** type, is-formal *)
  | SArray of array_info
  | SConst of Expr.t  (** [Int] or [Real] literal *)

type env = {
  routine : Decl.routine;  (** rewritten routine *)
  syms : (string, sym) Hashtbl.t;
}

val analyse_routine :
  ?allow_formal_dists:bool -> Decl.routine -> (env, string list) result
(** [allow_formal_dists] is enabled when compiling linker-generated clones,
    whose formals carry propagated reshape directives. *)

val analyse_file :
  ?allow_formal_dists:bool -> Decl.file -> (env list, string list) result
(** Analyses every routine; errors from all routines are concatenated,
    after one error per repeated definition of a routine name in the file
    (naming it and the first definition). *)

val find_sym : env -> string -> sym option
val find_array : env -> string -> array_info option
(* Test-only: tests pin the typing rule behind compiled int/real code. *)
val type_of : env -> Expr.t -> Types.ty
(** Result type of a checked expression (call only on expressions that
    passed analysis; raises [Invalid_argument] on malformed input). *)

val loop_nest_vars : Stmt.doacross -> string list
(** The parallel loop variables: the [nest] clause if present, else the
    single outer loop variable. *)

(** Statements: the executable part of the surface language, plus the
    compiler-internal forms introduced by transformation ([AbsStore],
    processor-tile loops are ordinary [Do] loops over reserved variables,
    barriers). *)

type lhs = LVar of string | LRef of string * Expr.t list

type sched = Simple | Interleave of int

type t = { s : kind; loc : Loc.t }

and kind =
  | Assign of lhs * Expr.t
  | AbsStore of Types.ty * Expr.t * Expr.t  (** store value at word address *)
  | Do of do_
  | If of Expr.t * t list * t list
  | Call of string * Expr.t list
  | Doacross of doacross
  | Redistribute of redist
  | Continue
  | Return
  | Print of Expr.t list
  | Barrier
      (** surface [c$barrier]: an explicit synchronization point inside a
          parallel region (no pass inserts one) *)
  | Par of par
      (** compiler-internal SPMD region produced by scheduling a
          [c$doacross]: every processor executes [pbody] with the reserved
          variables [myp$] (its 0-based id) and [np$] (processor count)
          bound in a private scalar frame; an implicit barrier follows. *)
  | Gather of gather
      (** compiler-internal inspector for an irregular loop: walks the
          rectangle once, reads the index array, and bulk-fetches the
          referenced target elements into a per-site scratch buffer keyed
          by iteration slot; the rewritten loop (executor) reads the
          scratch via [Expr.GatherBase]. Formed in serial context only;
          the routine may still run on a [c$doacross] worker. *)

and par = { pbody : t list }

and gather = {
  g_id : int;  (** site id, unique within the routine *)
  g_target : string;  (** rank-1 array whose elements are gathered *)
  g_index : string;  (** integer index array driving the accesses *)
  g_scale : int;  (** target subscript = [g_scale * index(...) + g_off] *)
  g_off : int;
  g_dims : (string * Expr.t * Expr.t) list;
      (** rectangle (var, lo, hi) per nest dim, outermost first, step 1 *)
  g_isubs : Expr.t list;
      (** subscripts into the index array: pure scalar expressions over the
          nest variables and loop-invariant scalars *)
}

and do_ = {
  var : string;
  lo : Expr.t;
  hi : Expr.t;
  step : Expr.t option;  (** [None] = 1 *)
  body : t list;
}

and doacross = {
  locals : string list;
  shareds : string list;
  affinity : aff option;
  sched : sched;
  d_onto : int list option;
  nest_vars : string list;  (** non-empty iff a [nest] clause was given *)
  loop : do_;
}

and aff = {
  avars : string list;  (** loop variables named in [affinity(...)] *)
  aarray : string;
  asubs : Expr.t list;  (** subscripts of the [data(A(...))] reference *)
}

and redist = {
  rarray : string;
  rkinds : Ddsm_dist.Kind.t list;
  ronto : int list option;
  rprocs : int option;
      (** [procs(n)] clause: resize the onto-grid to [n] processors
          (clamped to the job size at runtime) instead of using all of
          them *)
}

val mk : ?loc:Loc.t -> kind -> t

(** {2 Traversal}

    The one place that knows which statements nest bodies and which
    expressions a node holds; every pass is written over these. *)

val fold : ('a -> t -> 'a) -> 'a -> t list -> 'a
(** Pre-order fold over the statements and everything nested in them: the
    [Do] body, the [If] branches (then, else), the [Doacross] loop body,
    the [Par] body. *)

val map_bodies : (t list -> t list) -> t -> t
(** A fresh node with [f] applied to each statement list nested directly
    in it (the ones {!fold} enters); [f] sees an [If]'s else branch before
    its then branch. A node without bodies is returned physically
    unchanged. *)

val own_exprs : t -> Expr.t list
(** The node's own expressions, in source order: right-hand sides and
    subscripts, loop bounds and step, an [If] condition, call and print
    arguments, affinity subscripts, a [Gather]'s rectangle bounds and index
    subscripts. Those of nested bodies are not included. *)

val map_own_exprs : (Expr.t -> Expr.t) -> t -> t
(** A fresh node with [f] applied to each of {!own_exprs}; nested bodies
    are shared, not visited. *)

val map_exprs : (Expr.t -> Expr.t) -> t -> t
(** Rewrite every expression in the statement tree: nested bodies first,
    then the node's own expressions. *)

val iter_exprs : (Expr.t -> unit) -> t -> unit
(** Every expression in the statement tree, in source order. *)

val assigned_vars : t list -> string list
(** Scalar variables assigned anywhere in the statements (including loop
    variables). *)

val arrays_written : t list -> string list

val arrays_redistributed : t list -> string list
(** Targets of every [c$redistribute] anywhere in the statements. *)

val calls_made : t list -> string list

val size : t list -> int
(** Total statement-node count, recursing into loop/branch bodies — the
    progress metric the fuzzing shrinker minimizes. *)

val pp_body : Format.formatter -> t list -> unit

(** Generation of Table 1 address expressions for reshaped-array references.

    An unoptimized reference [A(e1,...,en)] becomes

    {v base[linear_owner] + local_linear v}

    where the per-dimension owner is (0-based [i0 = e_d - lower_d]):
    block [i0 / b], cyclic [i0 mod P], cyclic(k) [(i0/k) mod P]; and the
    per-dimension offset is block [i0 mod b], cyclic [i0 / P], cyclic(k)
    [(i0/(kP))*k + i0 mod k]. [b], [P] and the per-processor storage extents
    are loads from the array's descriptor block ({!Ddsm_ir.Expr.Meta}); the
    portion base pointer is the indirect load {!Ddsm_ir.Expr.BaseOf}.

    A {b binding} replaces a dimension's computation when an enclosing
    processor-tile (or affinity-scheduled) loop has pinned the owner: the
    owner becomes the tile variable and the offset the div/mod-free form
    [v + c - lower - owner*b] (§7.1 strength reduction). *)

open Ddsm_ir

type bind = {
  bvar : string;  (** the loop variable the dimension is affine in *)
  bowner : Expr.t;  (** pinned owner index for the dimension *)
  bonly_n : int option;
      (** when set, only references whose normalized offset [c - lower]
          equals this value use the strength-reduced form (peeling is off,
          so stencil neighbours could cross the portion boundary and must
          keep the general Table 1 addressing) *)
}

type binds = ((string * int) * bind) list
(** keyed by (group key, dimension). *)

val owner_expr : Tctx.arr -> dim:int -> i0:Expr.t -> Expr.t

val address : Tctx.arr -> binds -> subs:Expr.t list -> Expr.t
(** Full word-address expression for a reference, using bindings where a
    dimension's subscript is [1*bvar + c]. *)

val cdiv_e : Expr.t -> Expr.t -> Expr.t
(** ceil-division expression (floor-division [Idiv] based). *)

val meta_block : Tctx.arr -> dim:int -> Expr.t
val meta_procs : Tctx.arr -> dim:int -> Expr.t

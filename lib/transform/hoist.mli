(** §7.2 hoisting: move loop-invariant descriptor loads ([Meta]), indirect
    base-pointer loads ([BaseOf]) and integer div/mod out of loops into
    compiler temporaries.

    These operations are in general unsafe to speculate (which is why the
    paper reports the scalar optimizer refusing to move them), but "are
    always safe in the context of reshaped arrays", so this pass moves them
    eagerly: for each loop, every maximal subexpression that (a) contains
    one of those operations, (b) reads no memory via [AbsLoad]/array
    references, and (c) uses no variable assigned inside the loop, is
    computed once before the loop. Processing is outside-in so expressions
    invariant at several levels hoist all the way out. [Par] regions are a
    hoisting barrier (worker-private state). *)

val routine : Tctx.t -> Ddsm_ir.Decl.routine -> Ddsm_ir.Decl.routine

(* Test-only: the CSE oracle (test/cse_ref.ml) uses the same test. *)
val contains_expensive : Ddsm_ir.Expr.t -> bool
(** True when the expression contains a descriptor load, an indirect
    base-pointer load, or an integer div/mod. The CSE pass computes the
    same test bottom-up while it enumerates candidates. *)

val meta_arrays : Ddsm_ir.Expr.t -> string list
(** Arrays whose layout tables ([Meta]/[BaseOf]) the expression consults. *)

(** Inspector-executor transformation of irregular (indirect-subscript)
    loops, DESIGN.md §12.

    A qualifying nest reading [a(s*idx(f(vars))+c)] is split into a
    [Stmt.Gather] inspector emitted just before the nest -- it walks the
    rectangle once, reads the index array, and bulk-fetches the
    referenced target elements per home node into scratch -- and an
    executor: the original nest with each such reference rewritten to
    [Expr.AbsLoad] of the scratch word for its iteration slot (addressed
    off [Expr.GatherBase]).  Runs before {!Lower} on the checked surface
    routine; gated by {!Flags.t.inspector}. *)

val routine : Tctx.t -> Ddsm_ir.Decl.routine -> Ddsm_ir.Decl.routine

(** §7.2 common-subexpression elimination across reshaped index expressions.

    Works block-by-block (statement lists): repeated occurrences of pure,
    expensive subexpressions — those containing descriptor loads, base
    pointer loads, or div/mod — are computed once into a temporary, as long
    as no intervening statement assigns one of their inputs. Because
    descriptor fields are constant after start-up ("we solved this problem
    by marking such variables as constant", §7.2) and scalar arguments are
    passed by value, [call] statements do not kill availability.

    {b Selection contract.} The output is a deterministic function of the
    routine and the fresh-name supply:

    - {e Candidates} are the subterms of a statement's block-level
      expressions (those outside its nested bodies) that contain a [Meta],
      [BaseOf], [Idiv] or [Imod] and no [Ref], [AbsLoad], [Str] or
      [GatherBase]. Occurrences are counted with [Expr.equal]; subterms
      equal to each other under [compare] are one candidate. A candidate
      holding a NaN literal is not equal to itself, so it never counts.
    - {e Kills.} Statement [k] kills a candidate when it assigns one of the
      candidate's free variables anywhere inside it (nested loop bodies
      included), or when a [c$redistribute] anywhere inside it targets an
      array whose [Meta]/[BaseOf] the candidate reads. A kill at [k] ends a
      segment after [k]: occurrences in statement [k] itself still belong
      to it. The kill-free segments of a block partition its statements.
    - {e One round} picks the (candidate, segment) pair with the most
      occurrences in the segment, at least two; among equals, the larger
      candidate (node count); among equals again, the candidate first in
      the iteration order of a [Hashtbl] keyed by [Expr.t], created with
      size 32 and filled in [Expr.iter] pre-order over the block's
      statements; and for one candidate, its earliest segment. It draws one
      [Tctx.fresh ctx "cse"] name [t], inserts [t = c] before the segment's
      first statement and replaces [c] by [t] throughout the segment.
    - {e Rounds} repeat until none is profitable, at most 51 per block.
      Then each nested body is processed the same way, in statement order
      (an [If]'s else branch before its then branch). A [Gather]'s
      rectangle and a [Doacross] header are never rewritten; the pass
      runs after {!Lower}, which leaves no [Doacross]. *)

val routine : Tctx.t -> Ddsm_ir.Decl.routine -> Ddsm_ir.Decl.routine

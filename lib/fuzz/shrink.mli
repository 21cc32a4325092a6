(** Greedy structural shrinking of a failing program spec.

    Candidates are simplifications of the {e spec}, never of the rendered
    text, so every candidate is still well-formed by construction: drop a
    statement, inline an [if] branch, serialise a doacross (and drop its
    clauses one by one), drop a subroutine together with its call sites,
    merge all files into one, simplify a distribution (reshaped -> regular
    -> none), shrink array extents (clamping constant subscripts).  A
    candidate is kept when [still_fails] holds — usually "same triage
    bucket" — and the process restarts from it until a fixpoint or the
    attempt budget is hit. *)

val minimize :
  ?max_attempts:int -> still_fails:(Spec.t -> bool) -> Spec.t -> Spec.t
(** [max_attempts] bounds the number of predicate evaluations (default
    300); the given spec is assumed failing and is returned if nothing
    smaller still fails. *)

(* Test-only: tests check that a minimized spec is no heavier. *)
val weight : Spec.t -> int
(** Size metric the shrinker descends on (statement count + extents +
    clause count). *)

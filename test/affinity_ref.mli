(** Reference model of affinity scheduling: which iterations of a
    [c$doacross ... affinity(i) = data(A(s*i+c))] loop run on each processor
    (paper §3.4 and Figure 2).

    The original loop [do i = LB, UB, step] is partitioned so that iteration
    [i] executes on the processor owning element [s*i + c] of the distributed
    dimension. The partition for each processor is a union of iteration
    {!piece}s — the same sets the compiler's generated doubly (or triply)
    nested loops enumerate. [test_dist] checks it against a brute-force
    owner scan, and checks the compiler's lowered loops against it by
    recording which processor ran each iteration.

    Indices are 0-based element space: the IR layer folds the array lower
    bound into [c] before calling here. The paper requires [s] ("p") to be a
    non-negative literal; we additionally support the degenerate [s = 0]
    (every iteration lands on the owner of element [c]). [step] must be
    positive (checked by sema). *)

open Ddsm_dist

(** Arithmetic progressions: the oracle intersects the loop's iterations
    with a processor's owned residues (the [Cyclic] case). *)
module Ap : sig
  type t = { start : int; step : int }
  (** The arithmetic progression [{start + k*step | k >= 0}]. [step] > 0. *)

  val intersect : t -> t -> t option
  (** Intersection of two upward-infinite arithmetic progressions, itself an
      arithmetic progression (or [None] if empty, i.e. the residues are
      incompatible). The result's [start] is the smallest common element that is
      [>= max a.start b.start]. Starts may be negative. Raises
      [Invalid_argument] when a step is [>= 2{^31}] or the two starts are so
      far apart that their difference overflows — explicit refusals instead
      of silently wrapped CRT arithmetic. *)

  val align_up : int -> base:int -> step:int -> int
  (** [align_up x ~base ~step] is the smallest element of the progression
      [base, base+step, ...] that is [>= x]. [step] > 0. *)
end

type spec = { s : int; c : int }

type piece = { lo : int; hi : int; step : int }
(** Iterations [lo, lo+step, ..., <= hi]. Empty when [lo > hi]. *)

val pieces :
  Dim_map.t -> spec -> lb:int -> ub:int -> step:int -> proc:int -> piece list
(** Iteration pieces assigned to [proc], in increasing order, disjoint across
    processors, covering exactly the iterations whose affinity element is
    owned by [proc].

    Shapes, mirroring Figure 2:
    - [Star]: everything on processor 0.
    - [Block]: at most one piece (the intersection of an index interval with
      the iteration progression).
    - [Cyclic]: at most one piece with enlarged step (the intersection of two
      arithmetic progressions); empty when the residues are incompatible, or
      several pieces when [s > 1] makes ownership periodic with period
      [P / gcd(s, P)].
    - [Cyclic_k]: one piece per owned chunk overlapping the iteration range
      (the innermost loop of the paper's triply nested form). *)

val iters : Dim_map.t -> spec -> lb:int -> ub:int -> step:int -> proc:int -> int list
(** Materialised iteration list (for tests and small loops). *)

(** Optimization flags, one per §7 technique, so the benchmark harness can
    reproduce Table 2's rows and run ablations. Affinity scheduling itself
    (§4.1) is not a flag: it is the semantics of the [affinity] clause and
    always runs. *)

type t = {
  tile : bool;
      (** §7.1 tiling: processor-tile loops over reshaped-array portions,
          with strength-reduced (div/mod-free) addressing in the tiles *)
  peel : bool;
      (** §7.1 peeling of boundary iterations so stencil neighbours stay
          within the tile's portion *)
  skew : bool;
      (** §7.1 loop skewing: convert references like [A(i + c*k)] ([k]
          loop-invariant) to [A(i')] so tiling and peeling apply *)
  hoist : bool;  (** §7.2 hoisting of indirect loads and div/mod out of loops *)
  cse : bool;  (** §7.2 CSE across reshaped index expressions *)
  fp_divmod : bool;  (** §7.3 div/mod via floating-point arithmetic *)
  interchange : bool;  (** §7.1.1 moving processor-tile loops outward *)
  inspector : bool;
      (** inspector-executor transformation of irregular (indirect-
          subscript) loops: the index vector is walked once, referenced
          elements are bulk-gathered per home node into scratch, and the
          loop reads the scratch (see DESIGN.md §12) *)
}

val all_on : t
val all_off : t
val tile_peel : t
(** Table 2 row 2: tiling and peeling only. *)

val tile_peel_hoist : t
(** Table 2 row 3: adds hoisting (and the CSE it enables). *)

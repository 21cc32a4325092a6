(** Whole-array distribution: the runtime descriptor built when a
    [c$distribute] or [c$distribute_reshape] directive is elaborated at
    program start-up.

    Combines a processor {!Grid} with one {!Dim_map} per array dimension and
    answers the multi-dimensional ownership questions the runtime and the
    simulator need. The transformation of a reshaped array distributed in
    multiple dimensions "is a simple composition of this basic scheme"
    (paper §4.3) — here literally a per-dimension composition. *)

type t = private {
  extents : int array;
  kinds : Kind.t array;
  grid : Grid.t;
  dims : Dim_map.t array;
}

val make :
  extents:int array -> kinds:Kind.t array -> nprocs:int ->
  ?onto:int array -> unit -> t
(** Elaborate a distribution over [nprocs] processors. Raises
    [Invalid_argument] on arity mismatches or invalid extents/kinds. *)

val nprocs : t -> int

val owner : t -> int array -> int
(** Linear processor owning an element. *)

val offsets : t -> int array -> int array
(** Per-dimension local offsets of an element within its owner's portion. *)

val storage_extents : t -> int array
(** Uniform per-processor storage shape used by the reshaped-storage manager
    (every processor's offsets fit in this box). *)

val iter_box : (int * int) list array -> (int array -> unit) -> unit
(** [iter_box ranges f] calls [f] on every index tuple of the box whose
    dimension [d] takes the values of the inclusive ranges [ranges.(d)], in
    order, first dimension fastest (column-major). A dimension with no
    range (or only empty ones) makes the box empty; zero dimensions make
    one call with [[||]]. [f] receives a reused buffer; copy if retained.
    The one index walk of the runtime: portions, contiguous runs and whole
    arrays (the fuzz image reader) all go through it. *)

val iter_portion : t -> proc:int -> (int array -> unit) -> unit
(** Iterate all global element tuples owned by [proc], first dimension
    fastest ({!iter_box} over the portion's per-dimension ranges). The
    callback receives a reused buffer; copy if retained. *)

val contiguous_ranges : t -> proc:int -> elem_bytes:int -> (int * int) list
(** Maximal contiguous byte ranges [(lo_byte, hi_byte)] (inclusive) of the
    portion of [proc] in the array's *original* column-major layout, relative
    to the array base. Used to place pages for regular distributions and to
    reason about page-granularity false sharing. *)

(* Test-only: prints property-test counterexamples. *)
val pp : Format.formatter -> t -> unit

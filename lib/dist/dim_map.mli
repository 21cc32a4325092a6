(** Ownership and addressing math for one distributed array dimension.

    This is the runtime realisation of the paper's Table 1: for a dimension of
    extent [N] distributed over [P] processors, it answers "which processor
    owns element [i]" (the [div] part of a reshaped reference) and "at which
    local offset" (the [mod] part), plus the inverse map and portion
    enumeration used for page placement and storage allocation.

    All indices here are 0-based element indices within the dimension; the IR
    layer normalises Fortran lower bounds before reaching this module. *)

type t = private {
  extent : int;  (** N, number of elements in the dimension *)
  procs : int;  (** P, processors assigned to this dimension *)
  kind : Kind.t;
  block : int;  (** b = ceil(N/P) for [Block]; chunk size k for [Cyclic_k];
                    1 for [Cyclic]; N for [Star]. *)
}

val make : extent:int -> procs:int -> Kind.t -> t
(** Raises [Invalid_argument] if [extent < 1], [procs < 1], or [procs > 1]
    on a [Star] dimension. *)

val owner : t -> int -> int
(** Processor owning element [i] (Table 1 [div] row):
    block [i/b]; cyclic [i mod P]; cyclic(k) [(i/k) mod P]; star [0]. *)

val offset : t -> int -> int
(** Local offset of element [i] within its owner's portion (Table 1 [mod]
    row): block [i mod b]; cyclic [i/P]; cyclic(k) [(i/(kP))*k + i mod k];
    star [i]. *)

(* Test-only: Table 1's inverse, the owner/offset properties' oracle. *)
val global : t -> proc:int -> offset:int -> int
(** Inverse of [(owner, offset)]. Unchecked: the pair must denote a real
    element (use [portion_size]). *)

(* Test-only: the partition properties check portion_ranges with it. *)
val portion_size : t -> proc:int -> int
(** Number of elements owned by [proc]. *)

val storage_extent : t -> int
(** Per-processor storage extent used when reshaping: the smallest extent
    such that every processor's [offset] values fit. Block: b; cyclic:
    ceil(N/P); cyclic(k): ceil(ceil(N/k)/P) * k. *)

val portion_ranges : t -> proc:int -> (int * int) list
(** Maximal contiguous global index ranges [(lo, hi)] (inclusive) owned by
    [proc], in increasing order. Block yields at most one range; cyclic yields
    singletons; cyclic(k) yields one range per owned chunk. *)

(* Test-only: prints property-test counterexamples. *)
val pp : Format.formatter -> t -> unit

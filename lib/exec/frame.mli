(** Per-invocation variable frames.

    Scalars live in typed slot arrays (resolved to indices at compile time);
    array names resolve to {!abind} bindings that carry either a full
    descriptor (locally declared arrays, whole-array arguments) or a bare
    base address (array-element arguments viewed as plain Fortran arrays by
    the callee). Parallel workers get a private copy of the scalar slots —
    the [local]-clause semantics — and share the array bindings. *)

type abind = {
  ab_darr : Ddsm_runtime.Darray.t option;
  ab_base : int;
      (** word address for column-major indexing; for whole reshaped arrays
          this is the descriptor address (a unique identity for argument
          checking), never indexed directly *)
  ab_lowers : int array;
  ab_strides : int array;
  ab_extents : int array;
  ab_ty : Ddsm_ir.Types.ty;
}

type t = { ints : int array; floats : float array; arrays : abind array }

val create : n_int:int -> n_float:int -> arrays:abind array -> t
val copy_scalars : t -> t
(** Fresh scalar slots holding the same values; shared array bindings. *)

val column_strides : int array -> int array
(** Column-major (Fortran) strides, in elements, of an array with these
    extents: [1; e1; e1*e2; ...]. *)

val dummy_abind : abind

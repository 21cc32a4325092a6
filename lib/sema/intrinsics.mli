(** Intrinsic functions of the surface language: the usual Fortran numeric
    intrinsics plus the [dsm_*] runtime inquiry intrinsics the paper's
    runtime provides "for traversing the individual portions of a
    distributed array" (§3.2.1). *)

type sig_ = {
  arity : int * int;  (** min, max accepted argument count *)
  result : [ `Int | `Real | `Same ];
      (** [`Same]: the common type of the arguments *)
  array_arg : bool;  (** first argument must name a distributed array *)
}

val lookup : string -> sig_ option

val cycles : string -> int
(** Compute cost charged by the VM for one evaluation. [sqrt], [exp] etc.
    are multi-cycle; [min]/[mod] are cheap; [dsm_*] inquiries cost a handful
    of cycles (they read cached descriptor state). *)

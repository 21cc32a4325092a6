(** Argument distribution signatures.

    A subroutine is cloned "for each distinct combination of
    distribute-reshape directives on its parameters" (paper §5). The
    signature records, per formal parameter, the reshaped distribution of
    the actual argument when a whole reshaped array is passed ([None] for
    scalars, plain/regular arrays, and array-element portions, which need
    no cloning). *)

type arg = { kinds : Ddsm_dist.Kind.t list; onto : int list option }

type t = arg option list

val is_trivial : t -> bool
(** No reshaped arguments: the original routine serves the call. *)

val mangle : string -> t -> string
(** Deterministic clone name, e.g. [mysub$r.block.star]. Trivial signatures
    return the name unchanged. *)

val to_string : t -> string
(** The text of a signature in [pflc dump]'s shadow lines. *)

val equal : t -> t -> bool

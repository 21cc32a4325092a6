(** Scalar types of the source language: [integer] and [real*8]. Both occupy
    one 8-byte word of simulated memory. *)

type ty = Tint | Treal

val pp_ty : Format.formatter -> ty -> unit

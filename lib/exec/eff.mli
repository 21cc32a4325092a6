(** The exception compiled code raises to end a run with a user error. *)

exception Runtime_error of string
(** A user-program error (bad arguments, bounds, inconsistent commons…). *)

val error : ('a, unit, string, 'b) format4 -> 'a

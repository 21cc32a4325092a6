(** Source locations for diagnostics. *)

type t = { file : string; line : int }

val none : t
val v : file:string -> line:int -> t
val to_string : t -> string

(** Dense mutable bit sets for directory sharer vectors (up to the machine's
    processor count, 128 on the Origin-2000). *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0..n-1]. *)

val add : t -> int -> unit
val mem : t -> int -> bool
val iter : (int -> unit) -> t -> unit

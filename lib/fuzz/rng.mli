(** Deterministic pseudo-random stream for the program generator.

    A splittable 48-bit LCG: the generated program is a pure function of
    the seed, so every campaign case can be replayed from its seed
    alone. *)

type t

val create : int -> t
val int : t -> int -> int
(** [int t n] is uniform in [0, n) ([0] when [n <= 0]). *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [lo, hi] inclusive. *)

val bool : t -> bool
val chance : t -> pct:int -> bool
(** True with probability [pct]/100. *)

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

(** Integer arithmetic helpers with floor/ceil semantics.

    OCaml's [/] and [mod] truncate toward zero; distribution math needs
    floor-division behaviour for possibly-negative numerators (e.g. affinity
    lower-bound computations where [p*b - c] can be negative). *)

val fdiv : int -> int -> int
(** [fdiv a b] is floor(a/b). [b] must be positive. Exact for every [a],
    including [min_int]. *)

val fmod : int -> int -> int
(** [fmod a b] is [a - b * fdiv a b], always in [0, b-1]. [b] > 0. *)

val cdiv : int -> int -> int
(** [cdiv a b] is ceil(a/b). [b] must be positive. *)

(* Test-only: the affinity oracle's CRT (test/affinity_ref.ml) uses it. *)
val egcd : int -> int -> int * int * int
(** [egcd a b] is [(g, x, y)] with [g = gcd a b] (non-negative) and
    [a*x + b*y = g]. Raises [Invalid_argument] when either operand is
    [min_int]: [|min_int|] is not representable, so the "gcd" would come
    back negative. *)

val gcd : int -> int -> int
(** Non-negative gcd; [gcd 0 0 = 0]. Same [min_int] restriction as
    {!egcd}. *)

val linear : radices:int array -> int array -> int
(** [linear ~radices idx] is the mixed-radix (column-major, first digit
    fastest) number of the digits [idx]:
    [idx.(0) + radices.(0) * (idx.(1) + radices.(1) * (...))]. It is the
    one rule for a processor number over a grid, an element's offset in
    column-major storage and its offset in a reshaped portion's storage
    box. No range check: each caller checks its digits against its own
    radices. *)

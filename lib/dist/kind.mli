(** Per-dimension distribution kinds, as in the [c$distribute] directive.

    [<dist>] may be one of [block], [cyclic], [cyclic(<k>)], or [*], with the
    same meaning as in HPF (paper §3.2). [Cyclic_k 1] is normalised to
    [Cyclic]. *)

type t =
  | Block  (** contiguous chunks of size ceil(N/P) *)
  | Cyclic  (** element i on processor i mod P *)
  | Cyclic_k of int  (** chunks of k elements dealt round-robin *)
  | Star  (** dimension not distributed *)

val equal : t -> t -> bool
val is_distributed : t -> bool

val normalise : t -> t
(** [Cyclic_k 1] -> [Cyclic]; validates that [Cyclic_k k] has [k >= 1]. *)

val pp : Format.formatter -> t -> unit
(** Prints directive syntax: [block], [cyclic], [cyclic(4)], [*]. *)

val to_string : t -> string

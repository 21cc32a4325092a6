(** Reference (Hashtbl-based) coherence directory — the differential oracle
    for the flat open-addressing {!Directory}. Test-only: random operation
    sequences must produce identical states on both implementations. *)

type state = Uncached | Shared of int list | Exclusive of int
(** [Shared] holds the sharers in increasing order. *)

type t

val create : nprocs:int -> t
val state : t -> line:int -> state
val set_exclusive : t -> line:int -> owner:int -> unit
val add_sharer : t -> line:int -> proc:int -> unit
val drop : t -> line:int -> proc:int -> unit
val sharers_except : t -> line:int -> proc:int -> int list
val entries : t -> int
val nprocs : t -> int

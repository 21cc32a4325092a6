(** Minimal-communication redistribution schedules (ROADMAP item 2).

    Computes, closed-form from two block-cyclic layouts of the same index
    space, how many elements every (source processor, destination
    processor) pair exchanges — following the interval composition of
    Sudarsan & Ribbens ("Efficient Multidimensional Data Redistribution
    for Resizable Parallel Computations") — and decomposes the resulting
    all-to-all into memory-bounded rounds in the style of Rink et al.
    ("Memory-efficient array redistribution"): in round [r] processor [s]
    sends to [s + r mod R], so every processor sends at most one transfer
    and receives at most one per round.

    Everything here is pure integer math over {!Layout} descriptors; no
    machine state is touched. The source and destination layouts may use
    different processor counts (resizable onto-grids). *)

type move = { src : int; dst : int; words : int }
(** An aggregated transfer: [words] elements homed on [src] that the new
    layout homes on [dst]. *)

type round = { transfers : move list; max_words : int }
(** One all-to-all round; [max_words] is the largest transfer, which
    bounds the per-processor staging memory and the round's parallel
    time. *)

type t = {
  nprocs_src : int;
  nprocs_dst : int;
  total_words : int;  (** every element of the array *)
  local_words : int;  (** elements whose home does not change *)
  cross_words : int;  (** elements that really move between processors *)
  moves : move list;  (** cross-processor pairs, aggregated and sorted *)
  rounds : round list;
}

val build : src:Layout.t -> dst:Layout.t -> t
(** Schedule the transition [src -> dst]. Raises [Invalid_argument] when
    the layouts describe different index spaces. Cost: proportional to
    the number of chunk boundaries in one owner period per dimension,
    times the number of distinct pair combinations — never to the number
    of elements. *)

(* Test-only: the differential oracle checks this step alone. *)
val dim_pairs : Dim_map.t -> Dim_map.t -> ((int * int) * int) list
(** One-dimensional pair map: [(src_owner, dst_owner), count] for a
    single dimension, sorted. *)

val rounds_of_moves : r:int -> move list -> round list
(** Group arbitrary moves into rounds for a machine of [r] processors (or
    nodes): the pair [(src, dst)] communicates in round class
    [(dst - src) mod r]. Rounds come in increasing class order, each
    round's transfers sorted by [(src, dst)]. Also schedules the
    page-granular moves of regular arrays and the inspector's bulk
    gathers. *)

val nrounds : t -> int

val round_words : round list -> int
(** Sum over rounds of the largest transfer in the round — the
    scheduled-time proxy the cost model charges (rounds are serial,
    transfers within a round parallel). *)

(** Directory-based invalidation cache-coherence state (paper §2: "the hub
    maintains cache coherence across processors using a directory-based
    invalidation protocol").

    One entry per (physical) L2 cache line ever cached. A line is either
    uncached, shared by a set of processors, or exclusively owned by one
    processor (which may have dirtied it — the dirty bit itself lives in the
    owner's cache). The protocol transitions are driven by {!Memsys}.

    The table is flat (open addressing over packed int arrays): the hot
    path asks only {!exclusive_owner}/{!is_uncached}, which read one packed
    state word, and walks sharers with {!iter_sharers_except}; none of
    them allocates. The test-only [test/directory_ref.ml]
    keeps the original map-based implementation as the differential-oracle
    reference. *)

type state =
  | Uncached
  | Shared of Bitset.t  (** non-empty sharer set, all copies clean *)
  | Exclusive of int  (** single owner, possibly dirty *)

type t

val create : nprocs:int -> t
val state : t -> line:int -> state
(** Materializes the sharer set on [Shared] lines — audit/test use; the
    access path uses the allocation-free queries below. *)

val exclusive_owner : t -> line:int -> int
(** Owner of the line if it is in [Exclusive] state, else -1. *)

val is_uncached : t -> line:int -> bool

val set_exclusive : t -> line:int -> owner:int -> unit
val add_sharer : t -> line:int -> proc:int -> unit
(** Moves Uncached -> Shared{proc}; Exclusive q -> Shared{q, proc};
    Shared s -> Shared (s + proc). *)

val drop : t -> line:int -> proc:int -> unit
(** Remove [proc] from the line's sharers/ownership (cache eviction). *)

val iter_sharers_except :
  t -> line:int -> proc:int -> ('a -> line:int -> int -> unit) -> 'a -> int
(** [iter_sharers_except t ~line ~proc f x] calls [f x ~line q] for each
    processor [q], other than [proc], currently holding the line, highest
    processor first, and returns how many it visited. It walks the sharer
    bits in place: with [f] a top-level function, the walk allocates
    nothing. [f] must not change the directory. *)

val iter : t -> (line:int -> state -> unit) -> unit
(** Visit every directory entry (including [Uncached] ones left behind by
    evictions); used by the invariant auditor. *)

(** Generic set-associative write-back cache with LRU replacement, used for
    both the 32 KB / 32 B-line L1 and the 4 MB / 128 B-line L2 of each
    simulated processor (paper §2).

    The cache tracks only line presence and dirtiness; coherence state lives
    in the {!Directory}. Addresses are byte addresses; lines are identified
    by [addr / line_bytes]. *)

type t

val create : Config.cache_cfg -> t

val probe : t -> line:int -> bool
(** Hit test without touching LRU state. *)

val touch : t -> line:int -> bool
(** Hit test that refreshes LRU on a hit. *)

val insert : t -> line:int -> dirty:bool -> int
(** Bring [line] in (it must not be present), evicting the set's LRU way if
    the set is full. Returns the victim packed into an int,
    [(line lsl 1) lor dirty], or {!no_victim} when a free way took the
    line: a fill allocates nothing. Decode it with {!victim_line} and
    {!victim_dirty}. *)

val no_victim : int
(** [-1]: the fill evicted nothing. *)

val victim_line : int -> int
(** The evicted line of a packed victim (not {!no_victim}). *)

val victim_dirty : int -> bool
(** Whether the evicted line of a packed victim was dirty. *)

val set_dirty : t -> line:int -> unit
(** Mark a resident line dirty. No-op if absent. *)

val is_dirty : t -> line:int -> bool

val clear_dirty : t -> line:int -> unit
(** Mark a resident line clean (downgrade after a writeback). No-op if
    absent. *)

val invalidate : t -> line:int -> bool
(** Drop the line if present; returns [true] if it was dirty. *)

val invalidate_range : t -> lo_addr:int -> hi_addr:int -> int
(** Invalidate every resident line overlapping the byte range; returns the
    number of dirty lines dropped. Used to knock the (smaller) L1 lines out
    when an L2 line is invalidated. *)

val clear_dirty_range : t -> lo_addr:int -> hi_addr:int -> unit
(** Mark every resident line overlapping the byte range clean. Used to
    downgrade the (smaller) L1 lines under an L2 line that loses
    exclusivity: their modified data has already been forwarded and written
    back at the L2 level, so a later L1 eviction must not fold a stale
    dirty bit back into the now-shared L2 line. *)

(* Test-only: tests observe occupancy after inserts and invalidations. *)
val resident_lines : t -> int

val iter_resident : t -> (line:int -> dirty:bool -> unit) -> unit
(** Visit every resident line (order unspecified); used by the invariant
    auditor. Does not disturb LRU state. *)

(** Per-processor translation lookaside buffer, fully associative with LRU
    replacement (the R10000 has 64 entries).

    Reshaping "uses all the data in a page, [so] it uses much fewer pages"
    (paper §8.2) — this module is what turns that into a measurable effect. *)

type t

val create : entries:int -> t

val access : t -> page:int -> bool
(** [access t ~page] returns [true] on a hit; on a miss the page is brought
    in, evicting the least-recently-used entry if full. *)

val flush : t -> unit

val invalidate : t -> page:int -> unit
(** Drop [page]'s translation if resident (a targeted shootdown, as a page
    migration requires); a no-op otherwise. Other entries stay resident. *)

(* Test-only: tests check that LRU eviction bounds occupancy. *)
val resident : t -> int
(** Number of currently valid entries. *)

val iter_resident : t -> (page:int -> unit) -> unit
(** Visit every resident translation; used by the invariant auditor. *)

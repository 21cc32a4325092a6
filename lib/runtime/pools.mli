(** Per-processor storage pools for reshaped arrays (paper §4.3):

    "each processor allocates a pool of storage from the shared heap, maps
    the pages for this pool of storage from within its local memory, and
    allocates its portion of each reshaped array from this pool of memory.
    We can therefore avoid padding the ends of each portion up to a page
    boundary."

    Pool slabs are page-aligned and their pages are explicitly placed on the
    owning processor's node; allocations within a slab are word-aligned
    only. *)

type t

val create : Heap.t -> Ddsm_machine.Memsys.t -> t
(** Each processor's pool grows by slabs of at least 4 pages. *)

val alloc : t -> proc:int -> words:int -> int
(** Allocate [words] words local to [proc]; returns the word address.
    Consecutive allocations by the same processor pack densely. *)

(* Test-only: tests check that a pool grows by whole slabs. *)
val slabs_allocated : t -> proc:int -> int

(** Operating-system page placement (paper §2): data is allocated at the
    granularity of a physical page. Supports the Origin-2000's default
    first-touch policy, the optional round-robin policy, and the explicit
    placement system call generated for [c$distribute] arrays ("the only OS
    support required", §4.2), which overrides first-touch.

    Each placed page receives a physical frame from a per-node sequential
    allocator. Pages placed consecutively on one node get consecutive frames
    — the simulator's analogue of the IRIX page-coloring algorithm the paper
    credits for reduced cache interference on reshaped arrays (§8.2). When a
    node's memory fills up, frames spill to subsequent nodes (this is what
    makes the paper's class-C LU incur remote references even on one
    processor, §8.1).

    The map itself is a growable flat int array indexed by virtual page
    (pages are dense: heap addresses start at 0), each entry a packed
    node|frame word — the access fast path pays one load, no hashing, no
    allocation. The test-only [test/pagetable_ref.ml] keeps the original
    map-based implementation as the differential-oracle reference. *)

type policy = First_touch | Round_robin

type t

val create : Config.t -> policy -> t
val policy : t -> policy

val translate : t -> page:int -> faulting_node:int -> int
(** Packed translation word of [page], assigning a home per policy on first
    touch (like {!home}, which is [packed_node] of this). Decode with
    {!packed_node}/{!packed_frame}; the word is non-negative, so callers
    can cache it in flat arrays with -1 as the empty mark. *)

val packed_node : int -> int
val packed_frame : int -> int

val place : t -> page:int -> node:int -> unit
(** Explicitly place an *unplaced* page on [node] (spilling if full). If the
    page is already placed this is a no-op: placement directives run before
    any touch, and re-placement must go through {!migrate}. *)

(* Test-only: tests place pages by first touch without a Memsys. *)
val home : t -> page:int -> faulting_node:int -> int
(** Home node of [page], assigning it per policy on first touch. *)

val home_opt : t -> page:int -> int option

val migrate : t -> page:int -> node:int -> unit
(** Re-home a page (dynamic redistribution, §3.3). The page gets a fresh
    frame on the target node. *)

val frame : t -> page:int -> int
(** Globally unique physical frame id of a placed page. Frames are assigned
    page-colored: the local frame is congruent to the virtual page number
    modulo the cache-way color count, modelling the IRIX page-coloring
    algorithm the paper credits for the reshaped version's reduced cache
    interference (§8.2). Raises if unplaced. *)

val node_of_frame : t -> int -> int
(** Recover the home node from a frame id (used to route writebacks). *)

(* Test-only: the Hashtbl oracle (test/pagetable_ref.ml) is compared on it. *)
val pages_on_node : t -> node:int -> int
(* Test-only: the Hashtbl oracle (test/pagetable_ref.ml) is compared on it. *)
val placed_pages : t -> int

val audit : t -> Ddsm_check.Audit.violation list
(** Check frame uniqueness and frame/node agreement for every placed
    page. *)

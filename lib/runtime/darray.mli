(** Distributed-array descriptors and storage management.

    Three storage classes mirror the paper's §3.2/§4:

    - {b plain} arrays: ordinary column-major Fortran storage, pages placed
      by the machine's default policy (first-touch or round-robin);
    - {b regular} distribution ([c$distribute]): the same column-major
      storage, but the runtime issues placement calls so each portion's
      pages land on the owner's node. Placement is page-granular: a page
      requested for several portions goes to the *last* requester (§8.3),
      which is what makes regular distribution degrade when portions are
      much smaller than a page;
    - {b reshaped} distribution ([c$distribute_reshape]): the array becomes
      a processor-array of per-processor portions (Figure 3), each allocated
      from the owner's local {!Pools} pool, plus an in-memory descriptor
      block (distribution parameters and the processor-pointer array) that
      compiled code loads when computing Table 1 addresses.

    Indices passed to this module are Fortran-style (respecting each
    dimension's lower bound, usually 1). *)

open Ddsm_dist

type elem = Real | Int

(** Layout of the in-memory descriptor block of a reshaped array, used by
    the compiler when emitting address computations. All fields are integer
    words at [meta_base + offset]: for each dimension [d] of [ndims], words
    [3d..3d+2] hold (procs, block-size, storage-extent); the
    processor-pointer array (word address of each processor's portion)
    starts at word [3*ndims]. *)
module Meta : sig
  val procs_off : dim:int -> int
  val block_off : dim:int -> int
  val stor_off : dim:int -> int
  val bases_off : ndims:int -> int
end

type storage =
  | Normal of { base : int }  (** column-major at this word address *)
  | Reshaped of {
      meta_base : int;  (** word address of the descriptor block *)
      bases : int array;  (** host-side copy of the processor-pointer array *)
      portion_words : int;  (** per-processor storage-box size *)
    }

type t = {
  name : string;
  elem : elem;
  extents : int array;
  lower : int array;  (** per-dimension lower bounds *)
  mutable layout : Layout.t option;  (** [Some] iff distributed *)
  reshaped : bool;
  mutable storage : storage;
      (** mutable for the RCU install of {!redistribute}: a reshaped
          relayout builds new portions and descriptor aside, then swaps
          them in here in one step *)
  mutable meta : int option;
      (** word address of the descriptor block; present for every
          distributed array (regular or reshaped) so compiled affinity
          scheduling can load [P] and [b] at runtime *)
  mutable canaries : (int * int) list;
      (** guard words [(addr, pattern)] planted around every allocation
          this array owns (storage, descriptor block, reshaped portions);
          checked by {!audit}. Superseded allocations keep their guards —
          the heap never reuses them. *)
  mutable version : int;
      (** write-generation counter: bumped by the VM on element stores and
          element arguments passed by reference, and by the runtime on
          redistribution. The inspector-executor keys cached gather
          schedules on (index version, target version) and re-inspects
          when either moves. *)
}

val bump_version : t -> unit

val audit : t -> Heap.t -> Ddsm_check.Audit.violation list
(** Check every guard word of the array in both heap planes; a violation
    names the clobbered address and which plane was overwritten. *)

val alloc_plain :
  Heap.t -> name:string -> elem:elem -> extents:int array ->
  ?lower:int array -> page_words:int -> unit -> t
(** Plain array, page-aligned and padded to whole pages so its placement
    cannot interfere with neighbouring allocations. *)

val alloc_regular :
  Heap.t -> Ddsm_machine.Memsys.t -> name:string -> elem:elem ->
  extents:int array -> ?lower:int array -> kinds:Kind.t array ->
  ?onto:int array -> nprocs:int -> unit -> t
(** Regular distribution: plain storage plus explicit page placement. *)

val alloc_reshaped :
  Heap.t -> Ddsm_machine.Memsys.t -> Pools.t -> name:string -> elem:elem ->
  extents:int array -> ?lower:int array -> kinds:Kind.t array ->
  ?onto:int array -> nprocs:int -> unit -> t

type outcome = {
  pages_moved : int;  (** regular arrays: pages migrated; reshaped: 0 *)
  words_moved : int;  (** data words that change home processor/node *)
  rounds : int;  (** all-to-all rounds of the communication schedule *)
  round_words : int;
      (** sum over rounds of the round's largest transfer — the
          scheduled-time proxy the cost model charges (rounds are serial,
          transfers within a round parallel) *)
}

type progress =
  | Moved of outcome
  | Busy
      (** an injected page-migration failure aborted the attempt; every
          already-applied move was rolled back, so placement, layout and
          descriptor are all still the OLD state — retryable *)

val redistribute :
  t -> Heap.t -> Ddsm_machine.Memsys.t -> ?pools:Pools.t ->
  kinds:Kind.t array -> ?onto:int array -> nprocs:int -> unit ->
  (progress, string) result
(** [c$redistribute]: transition a distributed array to new distribution
    kinds — and possibly a new processor count [nprocs] (resizable
    onto-grid) — under the minimal-communication schedule of
    {!Ddsm_dist.Redist}.

    Regular arrays: every page move is planned first, ordered by the
    round schedule, and applied through the bulk machine entry
    ({!Ddsm_machine.Memsys.migrate_pages}); pages, layout and descriptor
    commit together or not at all.

    Reshaped arrays: the new portions and descriptor block are built
    aside while readers keep resolving addresses through the old
    descriptor, every element is copied ({!copy_elem}) from its old word
    to its new one under the schedule, and the new storage is installed
    with one host-side swap (RCU). Both words come from the same reshaped
    element rule as {!word_addr}. Requires [pools]. Errors on plain
    (undistributed) arrays. *)

val word_addr : t -> int array -> int
(** Word address of an element (Fortran indices); raises
    [Invalid_argument] naming the array, index and dimension when an index
    is out of bounds. Plain and regular arrays: the base plus the
    column-major offset ({!Ddsm_dist.Intmath.linear} over the extents).
    Reshaped arrays: the owner's portion base plus the column-major offset
    of the element's local offsets inside the storage box — the runtime
    oracle for the compiled Table 1 address computation, and the rule a
    relayout copies by. *)

val copy_elem : Heap.t -> elem -> src:int -> dst:int -> unit
(** Copy one element word from [src] to [dst] in the heap plane of [elem]
    (no timing): the one element copy of a reshaped relayout, a gather's
    bulk fetch and its per-element fallback. *)

val element_count : t -> int

val portion_run : t -> int array -> int
(** Consecutive global elements starting at the given (Fortran) indices
    that live contiguously in the owner's portion: the size of the portion
    an element argument denotes (paper §3.2.1 — a [cyclic(5)] element at a
    chunk start denotes 5 elements). Plain arrays: the rest of the array. *)

(* Test-only: tests check reshaped portion placement. *)
val portion_base : t -> proc:int -> int
(** Reshaped arrays: word address of [proc]'s portion. *)

(* Test-only: tests check reshaped portion sizes. *)
val portion_words : t -> proc:int -> int
(** Number of words of [proc]'s *storage box* (reshaped allocation size). *)

val word_ranges : t -> (int * int) list
(** Every word range this array owns, as inclusive [(lo, hi)] word-address
    pairs: element storage, the descriptor block, and each reshaped
    portion. The allocation map consumed by the cycle-attribution
    profiler. *)

val meta_base : t -> int
(** Distributed arrays: word address of the descriptor block. *)

(* Test-only: tests check the processor grid after a redistribution. *)
val nprocs : t -> int
(** Processors the array is distributed over (1 for plain arrays). *)

(** The simulated shared virtual address space.

    The machine simulator models timing and coherence only; the actual data
    lives here, in two parallel word arrays (8-byte words): [reals] for
    [real*8] values and [ints] for integer values and runtime metadata
    (array descriptors, processor-pointer arrays). Word address [w]
    corresponds to byte address [8*w] in the machine.

    A simple bump allocator with no free list. Static storage (common
    blocks and local arrays with program lifetime) is allocated at
    start-up, but a reshaped relayout allocates new portions and a new
    descriptor block at run time, and so does each gather's scratch
    buffer; nothing frees either yet (ROADMAP item 12: reclaim the
    storage a relayout leaves behind). *)

type t

val word_bytes : int
(** 8 — everything the simulated programs store is one 8-byte word. *)

exception Out_of_memory of string
(** Raised by {!alloc} when the simulated heap is exhausted — a resource
    error of the simulated program, distinct from [Failure] so it is never
    mistaken for an internal invariant violation. *)

val create : words:int -> t
(* Test-only: tests check the bump allocator's accounting. *)
val used_words : t -> int

val alloc : t -> words:int -> align_words:int -> int
(** [alloc t ~words ~align_words] reserves [words] words aligned to
    [align_words] and returns the first word address. Raises
    {!Out_of_memory} when exhausted. *)

val get_real : t -> int -> float
val set_real : t -> int -> float -> unit
val get_int : t -> int -> int
val set_int : t -> int -> int -> unit

val byte_of_word : int -> int

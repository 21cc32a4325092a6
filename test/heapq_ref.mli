(** Reference run queue, test-only: the minimal binary min-heap of
    (key, payload) pairs the scheduler used before [Ddsm_exec.Runq], kept
    as the oracle of the differential tests in test_machine_fastpath.ml.

    {b Ordering.} [pop] returns entries in non-decreasing key order, and
    entries with {e equal} keys in push (FIFO) order — ties are broken by a
    monotonic sequence number stamped at [push]. The scheduler's
    interleaving of same-cycle events is therefore a deterministic function
    of the push history, not of heap-internal layout. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> key:int -> 'a -> unit
val pop : 'a t -> (int * 'a) option

val min_key : 'a t -> int
(** Smallest queued key without popping it, or [max_int] on an empty heap
    (so "strictly before everything queued" is one comparison, no
    allocation). *)

val pop_value : 'a t -> 'a
(** Allocation-free pop: the payload of the smallest (key, seq) entry.
    Read the key first with {!min_key}. @raise Invalid_argument if empty. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

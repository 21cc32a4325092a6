(** The scheduler's run queue: (key, payload) pairs keyed by a simulated
    clock, used to pick the runnable simulated processor with the smallest
    local clock.

    {b Ordering.} [pop_value] returns entries in non-decreasing key order,
    and entries with {e equal} keys in push (FIFO) order. The scheduler's
    interleaving of same-cycle events is therefore a deterministic function
    of the push history.

    {b Monotone keys.} The queue is a calendar (bucket) queue over integer
    clocks, so it relies on one contract a heap would not need: no key is
    pushed below the last key popped (initially 0). The engine meets it by
    the conservative-lookahead argument (DESIGN.md §8): a task only ever
    re-enqueues at or after its own clock, which is at or after the clock
    it was popped at. A peek with {!min_key} does not count as a pop, so a
    push below the queued minimum but at or above the last pop is
    accepted.

    Steady-state push and pop allocate nothing. All state is per queue. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> key:int -> 'a -> unit
(** @raise Invalid_argument if [key] is below the last popped key. *)

val min_key : 'a t -> int
(** Smallest queued key without popping it, or [max_int] on an empty
    queue (so "strictly before everything queued" is one comparison, no
    allocation). *)

val pop_value : 'a t -> 'a
(** The payload of the oldest entry with the smallest key; that key becomes
    the last popped key. Read the key first with {!min_key}.
    @raise Invalid_argument if empty. *)

(* Test-only: the run-queue oracle compares sizes after every operation. *)
val size : 'a t -> int

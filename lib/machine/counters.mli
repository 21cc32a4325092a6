(** Per-processor event counters, the analogue of the MIPS R10000 hardware
    performance counters the paper uses to analyse its results (§8, [ZLT+96]):
    cache misses, TLB misses, local vs. remote memory references. *)

type t = {
  mutable loads : int;
  mutable stores : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable tlb_misses : int;
  mutable local_fills : int;  (** L2 misses served by the local node *)
  mutable remote_fills : int;  (** L2 misses served by a remote node *)
  mutable dirty_fetches : int;  (** fills supplied by another cache *)
  mutable upgrades : int;  (** writes needing invalidation of sharers *)
  mutable invals_sent : int;
  mutable invals_received : int;
  mutable writebacks : int;
  mutable contention_cycles : int;  (** waiting on busy memory modules *)
  mutable mem_stall_cycles : int;  (** total memory-system latency *)
  mutable tlb_stall_cycles : int;
}

val create : unit -> t
val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val sum : t array -> t
val accesses : t -> int

val to_assoc : t -> (string * int) list
(** Snapshot as (name, value) pairs, for structured diagnostics. *)

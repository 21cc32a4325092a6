(** The complete simulated memory system of the CC-NUMA machine: per-processor
    TLBs and two-level caches, the page table, the coherence directory, and
    per-node memory modules with finite bandwidth.

    [access] is the single entry point the VM uses for every load and store.
    It returns the access latency in cycles, charging:
    - a TLB miss penalty when the page translation is absent;
    - L1/L2 hit latencies;
    - on an L2 miss, the uncontended local (~70 cycles) or remote (110–180,
      by hypercube hop count) memory latency of the page's home node, plus
      queueing delay when that node's memory module is saturated (per-node
      bandwidth is what makes a hot node a bottleneck, §8.2);
    - coherence costs: invalidations on writes to shared lines, and
      cache-to-cache transfers when another processor holds the line dirty.

    Addresses are byte addresses in the simulated shared virtual address
    space; the machine holds no data, only state and timing (the runtime's
    heap stores values). *)

type t

(** Cause-tagged breakdown of one access, delivered to the optional probe
    installed with {!set_probe}. The six cycle fields partition the latency
    returned by {!access}: [ev_tlb + ev_hit + ev_local + ev_remote +
    ev_contention + ev_coherence] equals the charged latency exactly, so a
    profiler summing events reconstructs [mem_stall_cycles] with no
    unaccounted remainder. *)
type access_event = {
  mutable ev_proc : int;
  mutable ev_addr : int;  (** byte address in the shared virtual space *)
  mutable ev_write : bool;
  mutable ev_now : int;  (** the accessing processor's local clock *)
  mutable ev_tlb : int;  (** translation-miss refill cycles *)
  mutable ev_hit : int;  (** L1/L2 hit (pipeline) cycles *)
  mutable ev_local : int;  (** fill latency served by the local node's memory *)
  mutable ev_remote : int;  (** fill latency served by a remote home node *)
  mutable ev_contention : int;  (** queueing at a saturated memory module *)
  mutable ev_coherence : int;
      (** invalidations, upgrades and dirty cache-to-cache transfers *)
  mutable ev_tlb_flushed : bool;
      (** an injected TLB-shootdown fault fired on this access *)
}

val create : Config.t -> policy:Pagetable.policy -> ?fault:Ddsm_check.Fault.t -> unit -> t
(** [fault] (default {!Ddsm_check.Fault.none}) installs a deterministic
    fault plan: slow memory modules, hot directories, congested links and
    periodic TLB shootdowns perturb the latencies charged by {!access} —
    and only the latencies, never values. *)

val config : t -> Config.t

val faults : t -> Ddsm_check.Fault.counts
(** The plan's event counts for this machine: the one schedule the
    machine, the runtime and the scheduler all ask which event fails. *)

val access : t -> proc:int -> addr:int -> write:bool -> now:int -> int
(** Latency in cycles of a one-word access by [proc] at local time [now]. *)

val place_bytes : t -> lo:int -> hi:int -> node:int -> unit
(** Explicitly place every page overlapping byte range [lo, hi] on [node]
    (pages already placed are left alone — first placement wins, like
    consecutive placement system calls). *)

val place_page : t -> page:int -> node:int -> unit

val migrate_pages : t -> (int * int) list -> (int, int) result
(** Bulk scheduled migration: apply every [(page, node)] move in order —
    all or nothing. Each move counts one [Migration] of the fault plan;
    on an injected failure the moves already applied are migrated
    back to their previous homes and [Error i] names the failed move, so
    the caller observes either the complete new placement or the old one.
    [Ok n] is the number of moves applied. Migration allocates a fresh
    physical frame, so each move (and each rollback) also shoots the page
    down in every processor's TLB. *)

val home_of_addr : t -> int -> int option

val set_probe : t -> (access_event -> unit) option -> unit
(** Install (or remove, with [None]) the per-access probe. Called once per
    {!access} after all counters are charged, with {!event} refilled in
    place; [None] (the default) costs nothing on the access path. *)

val event : t -> access_event
(** The machine's one access record, the argument of every probe call: a
    probe reads it during the call and never keeps it. *)

(* Test-only: tests read one processor's counters. *)
val counters : t -> proc:int -> Counters.t
val total_counters : t -> Counters.t

val pagetable : t -> Pagetable.t

val audit : t -> Ddsm_check.Audit.violation list
(** On-demand invariant audit of the whole machine: single-writer
    coherence, directory/cache agreement (sharers hold the line, cached
    lines are tracked, dirty implies exclusive), L1⊆L2 inclusion,
    TLB/pagetable agreement, and physical-frame uniqueness. Returns the
    empty list when every invariant holds. Scans all machine state — call
    it between phases or after a run, not per access. *)

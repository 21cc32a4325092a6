(** Deterministic fault injection for the simulated CC-NUMA machine.

    A {!t} is an immutable, seeded plan of performance-side perturbations:
    slow memory modules, hot directory controllers, congested router links,
    periodic TLB shootdowns and retryable page-redistribution failures.
    The machine, the runtime and the scheduler consult it at fixed points
    through one {!counts} per machine; because every decision is a pure
    function of the plan and of those deterministic event counts, a faulty
    run is exactly reproducible.

    Faults never corrupt values — they only stretch latencies or force the
    runtime down its degradation paths — so any program must produce
    byte-identical output under any plan (the paper's "directives affect
    only the performance, not the correctness" contract, which the
    fuzzing differential driver [Ddsm_fuzz.Differ] mechanizes).

    The one exception is {!field-lose_wakeup}, a chaos fault that drops a
    scheduler wakeup to *induce a deadlock on purpose*; it exists to
    exercise the engine's watchdog/diagnosis machinery and is never chosen
    by {!random}. *)

type t = {
  seed : int;  (** identifies the plan in reports *)
  slow_nodes : (int * int) list;
      (** (node, extra cycles) added to every memory-module service at the
          node — a degraded DIMM / flaky memory controller *)
  hot_dirs : (int * int) list;
      (** (node, extra cycles) added to every directory transaction homed
          at the node — a hot/overloaded directory controller *)
  slow_links : ((int * int) * int) list;
      (** (unordered node pair, extra cycles) added to every transfer
          crossing the link — a congested router port *)
  tlb_flush_period : int;
      (** flush a processor's TLB every N translations (0 = off) — models
          interference shootdowns; only costs TLB refills *)
  redist_fail : int;
      (** the first N redistribution attempts (machine-wide) return a
          retryable failure — models transient page-migration failure *)
  migrate_fail : int;
      (** every page migration fails from the Nth one on (machine-wide):
          the first N-1 succeed, so a planned bulk migration fails in the
          MIDDLE and must roll back; 0 = off. Never chosen by {!random} —
          the failure is persistent, so a redistribute under this clause
          always falls back to the old placement (correct, only
          slower). *)
  gather_fail : int;
      (** bulk gather fetches (the inspector-executor's per-home transfers)
          fail from the Nth one on (machine-wide): the runtime retries with
          bounded attempts and then falls back to per-element fetches —
          homes and results unchanged, only slower; 0 = off. Never chosen
          by {!random} (the failure is persistent). *)
  lose_wakeup : int;
      (** chaos (not performance-side): drop the Nth memory-completion
          wakeup so the program deadlocks; 0 = off. For watchdog tests. *)
  drop_barrier : int;
      (** chaos (not performance-side): the Nth arrival of a worker at an
          in-region barrier (machine-wide) runs on without waiting and is
          not counted among the workers the barrier releases — the classic
          missing-synchronization bug; 0 = off. Barriers in serial code or
          in an inline nested region wait for no one and count no
          arrival. For sanitizer tests; never chosen by {!random}. *)
}

val none : t
(** The empty plan: every query is a no-op. *)

val is_none : t -> bool

val make :
  ?seed:int ->
  ?slow_nodes:(int * int) list ->
  ?hot_dirs:(int * int) list ->
  ?slow_links:((int * int) * int) list ->
  ?tlb_flush_period:int ->
  ?redist_fail:int ->
  ?migrate_fail:int ->
  ?gather_fail:int ->
  ?lose_wakeup:int ->
  ?drop_barrier:int ->
  unit ->
  t

val random : seed:int -> nnodes:int -> t
(** A deterministic pseudo-random plan over a machine of [nnodes] nodes:
    0–2 slow nodes, at most one hot directory and one congested link,
    sometimes periodic TLB flushes and a few redistribution failures.
    Never includes [lose_wakeup]. Same seed, same plan. *)

(** {2 Queries made by the machine model}

    Each folds one of the plan's lists, allocating a closure, so none is
    asked per access: the machine looks [mem_extra] and [dir_extra] up
    once per node when it is created, and asks [link_extra] only when the
    plan names a slow link. *)

val mem_extra : t -> node:int -> int
(** Extra service cycles at [node]'s memory module. *)

val dir_extra : t -> home:int -> int
(** Extra cycles per directory transaction homed at [home]. *)

val link_extra : t -> a:int -> b:int -> int
(** Extra cycles for a transfer between nodes [a] and [b] (symmetric;
    0 when [a = b]). *)

(** {2 One machine's event counts}

    A {!counts} binds a plan to one machine. It counts every event the plan
    schedules and, as it counts each one, says whether the plan makes that
    one fail. Every count is 1-based: the first event of a kind is
    number 1. *)

type event =
  | Migration
      (** a page migration: fails from the [migrate_fail]-th on *)
  | Redist_attempt
      (** a redistribute attempt: the first [redist_fail] fail *)
  | Gather_fetch
      (** a bulk gather fetch: fails from the [gather_fail]-th on *)
  | Wakeup
      (** a memory-completion wakeup: the [lose_wakeup]-th is lost *)
  | Barrier_arrival
      (** a worker's arrival at an in-region barrier: the
          [drop_barrier]-th neither waits nor is released with the others,
          so its accesses on either side are unordered with theirs — the
          sanitizer should report the resulting races *)

type counts

val counts : t -> nprocs:int -> counts
(** Fresh counts of [plan] for a machine of [nprocs] processors. *)

val fails : counts -> event -> bool
(** Count one more [event], machine-wide, and say whether the plan makes
    this one fail (for [Wakeup]: lost; for [Barrier_arrival]: dropped). *)

val schedules : counts -> event -> bool
(** Whether the plan makes any [event] fail at all. A caller on the
    per-access path asks {!fails} only when it does, so under a plan that
    schedules none of them such events are not counted — the rule
    {!flush_tlb} follows for translations. The scheduler asks [Wakeup]
    this way. *)

val flush_tlb : counts -> proc:int -> bool
(** Count one more translation by [proc] and say whether its TLB is
    flushed first: every [tlb_flush_period]-th translation of each
    processor. Without a period nothing is counted, and the machine does
    not ask. *)

(* Test-only: tests read how many events of a kind were counted. *)
val count : counts -> event -> int

(* Test-only: tests read how many translations [proc] counted. *)
val translations : counts -> proc:int -> int

(** {2 Parsing and printing} *)

val of_spec : string -> (t, string) result
(** Parse a command-line spec: comma-separated [key=value] clauses.
    ["none"] and [""] give {!none}. Clauses:
    - [seed=N]
    - [slow=NODE:EXTRA] (repeatable)
    - [hotdir=NODE:EXTRA] (repeatable)
    - [link=A-B:EXTRA] (repeatable)
    - [tlb=PERIOD]
    - [redist-fail=N]
    - [migrate-fail=N]
    - [gather-fail=N]
    - [lose-wakeup=N]
    - [drop-barrier=N]
    - [random=SEED:NNODES] (expands to {!random}; other clauses override)

    Example: ["slow=0:80,hotdir=1:40,tlb=512,redist-fail=2"]. *)

val to_spec : t -> string
(** Inverse of {!of_spec} (modulo clause order). *)

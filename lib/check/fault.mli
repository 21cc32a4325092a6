(** Deterministic fault injection for the simulated CC-NUMA machine.

    A {!t} is an immutable, seeded plan of performance-side perturbations:
    slow memory modules, hot directory controllers, congested router links,
    periodic TLB shootdowns and retryable page-redistribution failures. The
    machine model consults the plan at fixed points; because every decision
    is a pure function of the plan and of deterministic machine state
    (access counts, attempt indices), a faulty run is exactly reproducible.

    Faults never corrupt values — they only stretch latencies or force the
    runtime down its degradation paths — so any program must produce
    byte-identical output under any plan (the paper's "directives affect
    only the performance, not the correctness" contract, which
    [pflrun --differential] mechanizes).

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
      (** page migrations fail from the Nth one on (1-based, machine-wide
          counter): the first N-1 succeed, so a planned bulk migration
          fails in the MIDDLE and must roll back; 0 = off. Never chosen by
          {!random} — the failure is persistent, so a redistribute under
          this clause always falls back to the old placement (correct,
          only slower). *)
  gather_fail : int;
      (** bulk gather fetches (the inspector-executor's per-home transfers)
          fail from the Nth one on (1-based, machine-wide counter): the
          runtime retries with bounded attempts and then falls back to
          per-element fetches — homes and results unchanged, only slower;
          0 = off. Never chosen by {!random} (the failure is
          persistent). *)
  lose_wakeup : int;
      (** chaos (not performance-side): drop the Nth memory-completion
          wakeup so the program deadlocks; 0 = off. For watchdog tests. *)
  drop_barrier : int;
      (** chaos (not performance-side): skip the Nth barrier note (1-based,
          machine-wide) so one processor's barrier arrival is lost — the
          classic missing-synchronization bug; 0 = off. For sanitizer
          tests; never chosen by {!random}. *)
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

(** {2 Queries made by the machine model} *)

val mem_extra : t -> node:int -> int
(** Extra service cycles at [node]'s memory module. *)

val dir_extra : t -> home:int -> int
(** Extra cycles per directory transaction homed at [home]. *)

val link_extra : t -> a:int -> b:int -> int
(** Extra cycles for a transfer between nodes [a] and [b] (symmetric;
    0 when [a = b]). *)

val tlb_flush_due : t -> accesses:int -> bool
(** Should the TLB be flushed before translation number [accesses]
    (1-based, per processor)? *)

val redist_attempt_fails : t -> attempt:int -> bool
(** Does redistribution attempt number [attempt] (0-based, machine-wide)
    fail retryably? *)

val migration_fails : t -> migration:int -> bool
(** Does page migration number [migration] (0-based, machine-wide) fail?
    True from the [migrate_fail]-th migration (1-based) on. *)

val gather_fetch_fails : t -> fetch:int -> bool
(** Does bulk gather fetch number [fetch] (1-based, machine-wide) fail
    retryably? True from the [gather_fail]-th fetch on. *)

val wakeup_lost : t -> wakeup:int -> bool
(** Chaos: is memory-completion wakeup number [wakeup] (1-based,
    machine-wide) dropped? *)

val barrier_dropped : t -> barrier:int -> bool
(** Chaos: is barrier note number [barrier] (1-based, machine-wide)
    dropped? A dropped note means one processor's arrival at a barrier is
    never published — the sanitizer should report the resulting races. *)

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

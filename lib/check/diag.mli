(** Structured execution diagnostics.

    The engine reports every failure as a {!t}: a machine-readable record
    of what went wrong (the {!reason}), where in the pipeline
    ([phase]), the per-processor clocks, a tree of the blocked simulated
    tasks, a hardware-counter snapshot, and any invariant-audit violations.
    {!to_string} renders the same information as the human-readable dump
    callers previously got as a bare string. *)

type task_state =
  | Ready  (** runnable: queued, waiting only for its turn *)
  | Waiting of int  (** blocked joining this many unfinished children *)
  | Held  (** held at a barrier until its siblings arrive *)
  | Blocked_mem
      (** parked on a memory access whose completion wakeup never arrived
          (only possible under the [lose-wakeup] chaos fault) *)
  | Done

type task_view = {
  tv_proc : int;
  tv_clock : int;
  tv_depth : int;
  tv_state : task_state;
  tv_children : task_view list;  (** unfinished children only *)
}

type reason =
  | User of string
      (** a runtime error the program provoked (argument-check failure,
          bounds, out of simulated memory, ...) *)
  | Internal of string
      (** an invariant of the simulator itself broke ([Invalid_argument] /
          [Failure] escaping the machine model) — a bug, not a user error *)
  | Deadlock  (** the scheduler drained with the program unfinished *)
  | Cycle_budget of { limit : int }  (** simulated cycle budget exhausted *)
  | Watchdog_stall of { steps : int }
      (** the scheduler ran this many steps without any clock advancing *)
  | Audit_failure  (** a post-run invariant audit found violations *)

type t = {
  phase : string;  (** "elaborate", "compile" or "execute" *)
  reason : reason;
  proc_clocks : (int * int) list;
      (** (processor, local clock) of every live simulated task *)
  blocked : task_view list;  (** roots of the unfinished-task forest *)
  counters : (string * int) list;  (** hardware-counter snapshot *)
  violations : Audit.violation list;
}

val bare : ?phase:string -> reason -> t
(** A diagnostic with no machine context ([phase] defaults to
    ["execute"]). *)

val user : ?phase:string -> string -> t
(** A bare user-error diagnostic. *)

val internal : ?phase:string -> string -> t

val is_internal : t -> bool
(** True for [Internal _] and [Audit_failure] — failures of the simulator,
    not of the simulated program. *)

val code : t -> string
(** Stable machine-readable tag of the {!reason} constructor ("user",
    "internal", "deadlock", "cycle-budget", "watchdog-stall", "audit") —
    the key the fuzzing harness buckets failures by, so it must not change
    across releases. *)

(* Test-only: tests match a failure's reason without its dump. *)
val headline : t -> string
(** One-line summary (the old string error, e.g.
    ["deadlock: program did not run to completion"]). *)

val to_string : t -> string
(** Full dump: headline, phase, per-proc clocks, blocked-task tree,
    violations, and the non-zero counters. Equals {!headline} when there
    is no context to show (so simple error paths read as before). *)

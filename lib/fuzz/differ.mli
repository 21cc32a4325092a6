(** Three-way differential execution of one candidate program.

    Every candidate is run as:
    + the machine-free reference interpreter ({!Interp});
    + the sequential simulator engine, directly in-process;
    + the same engine legs dispatched through {!Ddsm_util.Jobs.map} — the
      domain-parallel fast path — over several machine configurations
      (processor counts, placement policies, optional fault plans).

    The in-process base run and its [Jobs]-dispatched duplicate must agree
    bit-for-bit on the final memory image, the print transcript, the cycle
    count and the machine counters.  The other configurations must agree
    with the base on the image and prints (values are
    configuration-independent for the deterministic programs the generator
    emits; cycles of course differ).  The reference interpreter must agree
    on image and prints, and runtime failures must line up status-for-status
    ([Diag] user error iff interpreter user error).

    With [fault] enabled, variant legs carry {!Ddsm_check.Fault.random}
    performance-only plans (values must not change), and every fourth case
    additionally runs a chaos leg with a lost-wakeup plan where the only
    requirement is a structured [Diag] — never an uncaught exception.  With
    [race] enabled, the base leg runs under the happens-before sanitizer
    ({!Ddsm_sanitize.Sanitize}) and must come back clean. *)

type options = {
  fault : bool;
  race : bool;
  jobs : int;  (** domains for the [Jobs] fast-path leg *)
  max_cycles : int;  (** per-leg simulated-cycle budget *)
  step_budget : int;  (** reference-interpreter statement budget *)
  case_seed : int;  (** seeds the fault plans; echo of the generator seed *)
}

val default : seed:int -> options
(** [fault:false race:false jobs:2 max_cycles:60M steps:2M]. *)

type verdict =
  | Pass
  | Timeout
      (** a budget tripped somewhere (interpreter steps, engine cycles,
          watchdog); the case is inconclusive and not counted as a failure *)
  | Reject of string
      (** the frontend/sema/linker refused the program, or the reference
          interpreter cannot model it ([F_unsupported]) *)
  | Fail of string
      (** consistent user-level runtime failure in every way of running the
          program (the argument is the [Diag] code) — not a divergence *)
  | Diverged of { kind : string; detail : string }
      (** [kind] is the triage bucket: ["fastpath"], ["variant"],
          ["values"], ["prints"], ["status"], ["engine-internal"],
          ["race"], ["exn"] *)

val kind_of : verdict -> string
(** Stable tag: ["ok" | "timeout" | "reject" | "fail" | "diverged:<kind>"]. *)

val run : options -> (string * string) list -> verdict
(** Run one candidate given as [(filename, source)] pairs. *)

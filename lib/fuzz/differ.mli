(** Three-way differential execution of one candidate program: the one
    check that distribution directives and the §7 transformations change
    only performance, never values.

    Every candidate is run as:
    + the machine-free reference interpreter ({!Interp});
    + the sequential simulator engine, directly in-process, on the files
      compiled with [Flags.all_on];
    + engine legs dispatched through {!Ddsm_util.Jobs.map} — the
      domain-parallel fast path: the base configuration again, two
      variants (other processor counts and placement policies), and the
      flags leg, which compiles and links the files again with another
      flag set.

    The in-process base run and its [Jobs]-dispatched duplicate must agree
    bit-for-bit on the final memory image, the print transcript, the cycle
    count and the machine counters.  The variants and the flags leg must
    agree with the base on the image and prints (values are
    configuration-independent for the deterministic programs the generator
    emits; cycles of course differ).  The reference interpreter must agree
    on image and prints, and runtime failures must line up status-for-status
    ([Diag] user error iff interpreter user error).

    The flags leg is fixed by [case_seed]: [case_seed mod 4] picks
    [Flags.all_off], [Flags.tile_peel], [all_on] without [peel], or a
    subset read off the hashed seed's bits; [(case_seed / 4) mod 5] picks
    the processor count from {1, 3, 5, 6, 7}; the placement policy
    alternates.  So a shrunk candidate or a replayed corpus case reruns the
    same leg.

    With [fault] enabled, the variant and flags legs carry
    {!Ddsm_check.Fault.random} performance-only plans (values must not
    change), and every fourth case additionally runs a chaos leg with a
    lost-wakeup plan, which must end [ok], in a [deadlock] or in a
    [watchdog-stall] — or, when the base leg failed with a user error, in a
    user error too.  Since the engine turns every escaping exception into
    an [Internal] diagnosis, any other ending is
    ["diverged:engine-internal"].  With [race] enabled, the base leg runs
    under the happens-before sanitizer ({!Ddsm_sanitize.Sanitize}) and must
    come back clean.

    The interpreter runs a doacross's iterations in order and treats
    [c$barrier] as a no-op, so a program whose values depend on a barrier
    is out of scope. *)

type options = {
  fault : bool;
  race : bool;
  jobs : int;  (** domains for the [Jobs] fast-path leg *)
  max_cycles : int;  (** per-leg simulated-cycle budget *)
  case_seed : int;
      (** seeds the fault plans and picks the flags leg; echo of the
          generator seed *)
}

val default : seed:int -> options
(** [fault:false race:false jobs:2 max_cycles:60M]. The reference
    interpreter's statement budget is {!Interp.run}'s fixed 2M. *)

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
          ["flags"], ["values"], ["prints"], ["status"],
          ["engine-internal"], ["race"], ["exn"] *)

val kind_of : verdict -> string
(** Stable tag: ["ok" | "timeout" | "reject" | "fail" | "diverged:<kind>"]. *)

val run : options -> (string * string) list -> verdict
(** Run one candidate given as [(filename, source)] pairs. *)

(** Straight-line reference interpreter over the post-sema IR.

    Computes the final array contents and print output of a program with no
    machine model at all: no simulated memory, no scheduling, no costs.  It
    mirrors the VM's evaluation semantics exactly — type promotion and the
    conversion points of [Compilec] (including the int-of-float top guard),
    intrinsic folds, [%.10g] print formatting, by-value scalar argument
    conversion, column-major views for whole-array and element arguments,
    and the engine's two-plane heap (integer and real stores are separate,
    so type-punned accesses read the other plane's zeros, as on the
    simulator).  A [c$doacross] executes as its serial loop with all scalars
    restored at the join — exactly the observable behaviour of the engine's
    fork/join for the serial-equivalent programs the generator emits. *)

type failure =
  | F_timeout  (** step budget exhausted (the engine analogue is a
                   cycle-budget or watchdog diagnosis) *)
  | F_user of string  (** a runtime error the program provoked *)
  | F_unsupported of string
      (** construct outside the interpreter's scope (equivalence, lowered
          IR forms, [dsm_*] inquiry intrinsics whose value depends on the
          machine configuration) — the differential driver skips these *)

type image = {
  arrays : (string * int64 array) list;
      (** qualified name -> element values as IEEE bits, column-major;
          integers via [float_of_int], matching {!Ddsm_runtime.Rt.read} *)
  prints : string list;
}

val run :
  (string * Ddsm_sema.Sema.env list) list -> (image, failure) result
(** Interpret the program given per-file post-sema environments (pre-link:
    original routine names, original bodies).  A run that executes more
    than 2,000,000 statements is an [F_timeout]. *)

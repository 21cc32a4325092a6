(** Invariant-audit vocabulary.

    The machine and runtime layers expose on-demand auditors
    ([Memsys.audit], [Rt.audit]) that sweep their state for violations of
    the simulator's structural invariants — single-writer coherence,
    directory/cache agreement, L1⊆L2 inclusion, pagetable/TLB agreement,
    physical-frame uniqueness, and heap canaries around array
    allocations. This module only defines the shared violation type; the
    checks themselves live next to the state they inspect. *)

type violation = { invariant : string; detail : string }

val v : string -> ('a, unit, string, violation) format4 -> 'a
(** [v invariant fmt ...] builds a violation with a formatted detail. *)

val pp_list : Format.formatter -> violation list -> unit

(** Derived metrics from the simulator's hardware-counter-like totals — the
    quantities the paper's §8 analysis quotes (cache-miss counts, the share
    of time in TLB handling, local vs. remote fills). *)

type t = {
  accesses : int;
  l1_miss_rate : float;
  l2_miss_rate : float;  (** of L1 misses *)
  l2_misses : int;
  tlb_misses : int;
  tlb_stall_fraction : float;  (** of total memory stall *)
  local_fill_fraction : float;  (** of all fills *)
  remote_fills : int;
  invalidations : int;
  contention_fraction : float;
}

(* Test-only: tests pin its zero-denominator rules. *)
val ratio : int -> int -> float
(** [ratio a b] is [a /. b], with the zero-denominator cases made honest:
    [0/0] is [0.0] (nothing happened), but [a/0] with [a > 0] is [nan] — a
    counter-accounting contradiction that {!pp} renders as ["--"] instead
    of a silent [0.0]. *)

val of_counters : Ddsm_machine.Counters.t -> t

val audit : Ddsm_machine.Counters.t -> string list
(** Cross-check counter totals for accounting contradictions (events
    charged against a base counter that never ticked, fills not matching
    L2 misses). Returns human-readable descriptions; empty when the
    counters are mutually consistent. *)

val pp : Format.formatter -> t -> unit
(** Renders nan fractions (see {!ratio}) as ["--"]. *)

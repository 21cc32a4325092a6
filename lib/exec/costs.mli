(** Instruction cost model (cycles), following the paper's R10000 numbers:
    a 32-bit integer divide is "about 35 cycles ... and is not pipelined";
    "the corresponding floating-point operation takes 11 cycles" (§7.3).
    Memory-access latencies come from the machine simulator, not from
    here. *)

(** 35 — hardware integer divide or modulo *)
val int_div : int

(** 11 — the §7.3 software (FPU-assisted) div/mod *)
val fp_div : int

(** floating-point division in user code *)
val real_div : int

(** add/sub/mul/compare/logical *)
val alu : int

val pow : int

(** base+offset address generation for an array ref *)
val addressing : int

val assign : int

(** per-iteration increment+test overhead *)
val loop_iter : int

(** call/return linkage *)
val call : int

(** §6 hash-table insert at a call site *)
val argcheck_register : int

(** §6 hash-table probe at subroutine entry *)
val argcheck_lookup : int

(** cycles charged for each failed (injected) attempt of a redistribute
    or a bulk gather fetch — every retry under [Rt]'s retry rule:
    OS round-trip plus backoff wait before the next attempt *)
val retry_backoff : int

(** setup and barrier of one all-to-all round of a scheduled
    redistribution *)
val redistribute_round : int

(** per-iteration-slot inspection work of an inspector-executor gather:
    one address classification plus a bin insert *)
val gather_inspect : int

(** one all-to-all round of a scheduled bulk gather *)
val gather_round : int

(** [scheduled ~round ~rounds ~round_words]: a scheduled transfer —
    redistribution or bulk gather — runs [rounds] rounds of [round]
    cycles back to back; within a round the transfers proceed in parallel
    so each round moves its largest transfer ([round_words] is the sum of
    those maxima), at one per-word bandwidth for both *)
val scheduled : round:int -> rounds:int -> round_words:int -> int

val intrinsic : string -> int

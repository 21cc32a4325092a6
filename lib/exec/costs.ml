let int_div = 35
let fp_div = 11
let real_div = 23
let alu = 1
let pow = 10
let addressing = 1
let assign = 1
let loop_iter = 2
let call = 12
let argcheck_register = 40
let argcheck_lookup = 25

(* one failed attempt of a redistribute or a bulk gather fetch: OS
   round-trip plus backoff wait before the next *)
let retry_backoff = 400

(* moving [words] data words of one transfer: each cache line is read and
   written through memory *)
let redistribute_words ~words = words / 4

(* one all-to-all round of a scheduled redistribution: pairing up the
   senders/receivers and the round barrier *)
let redistribute_round = 150

(* a scheduled redistribution runs its rounds back to back; within a
   round the transfers proceed in parallel, so the round costs its
   LARGEST transfer ([round_words] is the sum of those maxima) *)
let redistribute_scheduled ~rounds ~round_words =
  (rounds * redistribute_round) + redistribute_words ~words:round_words

(* inspector-executor gathers (irregular accesses through an index array):
   inspection classifies one referenced element per iteration slot — an
   address computation plus a bin insert *)
let gather_inspect = 2

(* one all-to-all round of a scheduled bulk gather; smaller than a
   redistribution round because nothing is re-homed, the receivers only
   fill their scratch pages *)
let gather_round = 100

(* words of one gather transfer: same per-word bandwidth as redistribution *)
let gather_words ~words = words / 4

(* a scheduled gather runs its rounds back to back; within a round the
   per-home transfers proceed in parallel, so a round costs its LARGEST
   transfer ([round_words] is the sum of those maxima) *)
let gather_scheduled ~rounds ~round_words =
  (rounds * gather_round) + gather_words ~words:round_words

let intrinsic = Ddsm_sema.Intrinsics.cycles

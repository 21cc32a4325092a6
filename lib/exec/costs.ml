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

(* one all-to-all round of a scheduled redistribution: pairing up the
   senders/receivers and the round barrier *)
let redistribute_round = 150

(* inspector-executor gathers (irregular accesses through an index array):
   inspection classifies one referenced element per iteration slot — an
   address computation plus a bin insert *)
let gather_inspect = 2

(* one all-to-all round of a scheduled bulk gather; smaller than a
   redistribution round because nothing is re-homed, the receivers only
   fill their scratch pages *)
let gather_round = 100

(* a scheduled transfer (redistribution or gather) runs its rounds back to
   back, each costing [round]; within a round the transfers proceed in
   parallel, so the round moves its LARGEST transfer ([round_words] is the
   sum of those maxima), and each cache line of it is read and written
   through memory: a quarter cycle per word *)
let scheduled ~round ~rounds ~round_words = (rounds * round) + (round_words / 4)

let intrinsic = Ddsm_sema.Intrinsics.cycles

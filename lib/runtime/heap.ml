type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type reals = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Bigarray storage keeps the (potentially huge) simulated memory out of the
   OCaml GC's marking work: a 16M-word int array would otherwise be scanned
   on every major slice, dominating simulation time. *)
type t = { reals : reals; ints : ints; mutable brk : int }

let word_bytes = 8

exception Out_of_memory of string

(* Zeroing policy: words are zeroed when [alloc] hands them out, not at
   [create]. Program-visible memory (always inside some allocation) still
   reads deterministically as zero until written, but creating a runtime
   costs O(live data) instead of O(heap size) — sweep harnesses build one
   heap per job, and a prefill of the whole arena dominated small runs. *)
let create ~words =
  if words < 1 then invalid_arg "Heap.create";
  let reals = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout words in
  let ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout words in
  { reals; ints; brk = 0 }

let size_words t = Bigarray.Array1.dim t.reals
let used_words t = t.brk

let alloc t ~words ~align_words =
  if words < 0 || align_words < 1 then invalid_arg "Heap.alloc";
  let base = (t.brk + align_words - 1) / align_words * align_words in
  if base + words > size_words t then
    raise
      (Out_of_memory
         (Printf.sprintf
            "out of simulated memory: need %d words at %d, heap holds %d"
            words base (size_words t)));
  t.brk <- base + words;
  if words > 0 then begin
    let sub a = Bigarray.Array1.sub a base words in
    Bigarray.Array1.fill (sub t.reals) 0.0;
    Bigarray.Array1.fill (sub t.ints) 0
  end;
  base

let get_real t w = Bigarray.Array1.get t.reals w
let set_real t w v = Bigarray.Array1.set t.reals w v
let get_int t w = Bigarray.Array1.get t.ints w
let set_int t w v = Bigarray.Array1.set t.ints w v
let byte_of_word w = w * word_bytes

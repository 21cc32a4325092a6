(* Reference run queue: the binary heap the scheduler used before
   [Ddsm_exec.Runq], kept verbatim as the oracle of the differential tests
   in test_machine_fastpath.ml. Not used by the engine. *)

(* Entries carry a monotonic push sequence number so equal keys pop in
   push (FIFO) order: the scheduler's tie-breaking is then deterministic by
   construction instead of depending on sift-up/sift-down accidents.

   Keys, sequence numbers and payloads live in parallel arrays so a
   push/pop cycle allocates nothing — the scheduler does one per simulated
   memory access that isn't fast-continued, so entry boxes would be churn
   on the hot path. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : 'a array; (* length 0 until the first push *)
  mutable n : int;
  mutable seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; n = 0; seq = 0 }
let is_empty t = t.n = 0
let size t = t.n

(* move the slot contents of [j] into [i] (heap-internal, both < n) *)
let shift t ~dst ~src =
  Array.unsafe_set t.keys dst (Array.unsafe_get t.keys src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.vals dst (Array.unsafe_get t.vals src)

let put t i ~key ~seq v =
  Array.unsafe_set t.keys i key;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.vals i v

let grow t v =
  let cap = Array.length t.keys in
  if t.n >= cap then begin
    let cap' = max 16 (2 * cap) in
    let keys' = Array.make cap' 0 and seqs' = Array.make cap' 0 in
    let vals' = Array.make cap' v in
    Array.blit t.keys 0 keys' 0 t.n;
    Array.blit t.seqs 0 seqs' 0 t.n;
    Array.blit t.vals 0 vals' 0 t.n;
    t.keys <- keys';
    t.seqs <- seqs';
    t.vals <- vals'
  end

(* hole-style sift-up: walk the hole toward the root shifting parents down,
   store the new element once at its final slot (no pairwise swaps) *)
let push t ~key v =
  grow t v;
  let seq = t.seq in
  t.seq <- seq + 1;
  let i = ref t.n in
  t.n <- t.n + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let p = (!i - 1) / 2 in
    let kp = Array.unsafe_get t.keys p in
    (* seqs are monotonic, so the new element never precedes an equal key *)
    if key < kp then begin
      shift t ~dst:!i ~src:p;
      i := p
    end
    else continue_ := false
  done;
  put t !i ~key ~seq v

let min_key t = if t.n = 0 then max_int else t.keys.(0)

let pop_value t =
  if t.n = 0 then invalid_arg "Heapq.pop_value: empty";
  let top = t.vals.(0) in
  t.n <- t.n - 1;
  let n = t.n in
  (* hole-style sift-down of the last element: move smaller children up
     into the hole, store the element once where it lands.
     note: vals.(n) keeps its (now stale) reference until overwritten by a
     later push; payloads here are scheduler tasks that outlive the queue
     entry anyway *)
  if n > 0 then begin
    let key = Array.unsafe_get t.keys n
    and seq = Array.unsafe_get t.seqs n
    and v = Array.unsafe_get t.vals n in
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      if l >= n then continue_ := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then begin
            let kl = Array.unsafe_get t.keys l
            and kr = Array.unsafe_get t.keys r in
            if
              kr < kl
              || (kr = kl && Array.unsafe_get t.seqs r < Array.unsafe_get t.seqs l)
            then r
            else l
          end
          else l
        in
        let kc = Array.unsafe_get t.keys c in
        if kc < key || (kc = key && Array.unsafe_get t.seqs c < seq) then begin
          shift t ~dst:!i ~src:c;
          i := c
        end
        else continue_ := false
      end
    done;
    put t !i ~key ~seq v
  end;
  top

let pop t =
  if t.n = 0 then None
  else
    let key = t.keys.(0) in
    Some (key, pop_value t)

(* Flat directory: an open-addressing (linear-probe) table over packed int
   arrays, replacing the Hashtbl of boxed entries. Physical line ids are
   too sparse for direct indexing (frames are colored and striped across
   nodes), but the flat probe table keeps the hot-path directory word one
   multiplicative hash and typically one load away, with zero allocation —
   [exclusive_owner]/[is_uncached] are the only directory questions the
   access fast path asks, and neither materializes a sharer set.

   Packed state word: 0 = uncached, (owner lsl 1) lor 1 = exclusive,
   2 = shared (sharer bits live in the side array, [nwords] words per
   slot). Entries are never removed (an eviction just returns the line to
   uncached), so the table only grows. The test-only
   [test/directory_ref.ml] keeps the original map-based implementation as
   the differential-oracle reference. *)

type state = Uncached | Shared of Bitset.t | Exclusive of int

type t = {
  nprocs : int;
  nwords : int; (* sharer words per slot *)
  mutable lb : int; (* capacity = 1 lsl lb *)
  mutable keys : int array; (* line ids; -1 = empty slot *)
  mutable st : int array; (* packed state word *)
  mutable sh : int array; (* capacity * nwords sharer bit words *)
  mutable size : int; (* occupied slots *)
}

let wbits = 62

(* small initial table: runtimes are built once per sweep job, and the
   table doubles on demand (amortized, host-side only) *)
let initial_lb = 12

let create ~nprocs =
  let cap = 1 lsl initial_lb in
  let nwords = max 1 ((nprocs + wbits - 1) / wbits) in
  {
    nprocs;
    nwords;
    lb = initial_lb;
    keys = Array.make cap (-1);
    st = Array.make cap 0;
    sh = Array.make (cap * nwords) 0;
    size = 0;
  }

(* fibonacci hashing: top [lb] bits of the wrapped product spread the
   correlated low bits of line ids *)
let slot_of t line =
  let mask = (1 lsl t.lb) - 1 in
  let i = ref ((line * 0x9E3779B97F4A7C1) lsr (63 - t.lb)) in
  i := !i land mask;
  let rec probe i =
    let k = Array.unsafe_get t.keys i in
    if k = line || k < 0 then i else probe ((i + 1) land mask)
  in
  probe !i

let grow t =
  let okeys = t.keys and ost = t.st and osh = t.sh and onw = t.nwords in
  let ocap = 1 lsl t.lb in
  t.lb <- t.lb + 1;
  let cap = 1 lsl t.lb in
  t.keys <- Array.make cap (-1);
  t.st <- Array.make cap 0;
  t.sh <- Array.make (cap * onw) 0;
  for i = 0 to ocap - 1 do
    let line = okeys.(i) in
    if line >= 0 then begin
      let s = slot_of t line in
      t.keys.(s) <- line;
      t.st.(s) <- ost.(i);
      Array.blit osh (i * onw) t.sh (s * onw) onw
    end
  done

(* slot of [line], claiming an empty slot (state uncached) if absent *)
let rec claim t line =
  let s = slot_of t line in
  if t.keys.(s) >= 0 then s
  else if 2 * (t.size + 1) > 1 lsl t.lb then begin
    grow t;
    claim t line
  end
  else begin
    t.keys.(s) <- line;
    t.st.(s) <- 0;
    Array.fill t.sh (s * t.nwords) t.nwords 0;
    t.size <- t.size + 1;
    s
  end

let state_of_slot t s =
  let w = t.st.(s) in
  if w = 0 then Uncached
  else if w land 1 = 1 then Exclusive (w lsr 1)
  else begin
    let b = Bitset.create t.nprocs in
    for p = 0 to t.nprocs - 1 do
      if t.sh.((s * t.nwords) + (p / wbits)) land (1 lsl (p mod wbits)) <> 0
      then Bitset.add b p
    done;
    Shared b
  end

let state t ~line =
  let s = slot_of t line in
  if t.keys.(s) < 0 then Uncached else state_of_slot t s

let exclusive_owner t ~line =
  let s = slot_of t line in
  if t.keys.(s) < 0 then -1
  else
    let w = Array.unsafe_get t.st s in
    if w land 1 = 1 then w lsr 1 else -1

let is_uncached t ~line =
  let s = slot_of t line in
  t.keys.(s) < 0 || t.st.(s) = 0

let set_exclusive t ~line ~owner =
  let s = claim t line in
  t.st.(s) <- (owner lsl 1) lor 1

let set_bit t s p =
  let i = (s * t.nwords) + (p / wbits) in
  t.sh.(i) <- t.sh.(i) lor (1 lsl (p mod wbits))

let add_sharer t ~line ~proc =
  let s = claim t line in
  let w = t.st.(s) in
  if w = 0 then begin
    Array.fill t.sh (s * t.nwords) t.nwords 0;
    set_bit t s proc;
    t.st.(s) <- 2
  end
  else if w land 1 = 1 then begin
    Array.fill t.sh (s * t.nwords) t.nwords 0;
    set_bit t s (w lsr 1);
    set_bit t s proc;
    t.st.(s) <- 2
  end
  else set_bit t s proc

let drop t ~line ~proc =
  let s = slot_of t line in
  if t.keys.(s) >= 0 then begin
    let w = t.st.(s) in
    if w land 1 = 1 then begin
      if w lsr 1 = proc then t.st.(s) <- 0
    end
    else if w = 2 then begin
      let i = (s * t.nwords) + (proc / wbits) in
      t.sh.(i) <- t.sh.(i) land lnot (1 lsl (proc mod wbits));
      let empty = ref true in
      for k = s * t.nwords to (s * t.nwords) + t.nwords - 1 do
        if t.sh.(k) <> 0 then empty := false
      done;
      if !empty then t.st.(s) <- 0
    end
  end

(* highest-processor-first, matching the Bitset.fold order of the reference
   implementation (the order is observable only through trace/event
   interleaving, never through counters) *)
let sharers_except t ~line ~proc =
  let s = slot_of t line in
  if t.keys.(s) < 0 then []
  else
    let w = t.st.(s) in
    if w = 0 then []
    else if w land 1 = 1 then if w lsr 1 = proc then [] else [ w lsr 1 ]
    else begin
      (* lowest first, each prepended; a word with no sharer is skipped *)
      let acc = ref [] in
      for k = 0 to t.nwords - 1 do
        let word = t.sh.((s * t.nwords) + k) in
        if word <> 0 then
          for b = 0 to min wbits (t.nprocs - (k * wbits)) - 1 do
            let p = (k * wbits) + b in
            if p <> proc && word land (1 lsl b) <> 0 then acc := p :: !acc
          done
      done;
      !acc
    end

let iter t f =
  for s = 0 to (1 lsl t.lb) - 1 do
    let line = t.keys.(s) in
    if line >= 0 then f ~line (state_of_slot t s)
  done

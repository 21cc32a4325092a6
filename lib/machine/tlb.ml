(* Flat fully-associative LRU TLB with constant-time lookup and
   replacement. Resident translations live in [entries] slots; an
   open-addressing index (linear probing over plain int arrays, four times
   as many buckets as slots) maps a page to its slot, and a doubly linked
   recency list through the slots keeps the least recently used one at the
   tail. A hit moves its slot to the head; a miss takes a free slot or the
   tail's. So neither a hit nor a miss scans the entries, and nothing
   allocates.

   The replacement order is exact LRU, the order the previous
   implementation kept with unique per-access stamps and a scan for the
   smallest: hit/miss sequences are bit-identical. The test-only
   [test/tlb_ref.ml] keeps that implementation as the differential-oracle
   reference. *)

type t = {
  entries : int;
  pages : int array; (* slot -> resident page, -1 when free *)
  newer : int array; (* recency list: slot -> next more recent, -1 at head *)
  older : int array; (* slot -> next less recent, -1 at tail; free list *)
  mutable head : int; (* most recently used slot, -1 when empty *)
  mutable tail : int; (* least recently used slot, -1 when empty *)
  mutable free : int; (* free slots, linked through [older] *)
  mutable used : int;
  keys : int array; (* index bucket -> page, -1 when empty *)
  slots : int array; (* index bucket -> the page's slot *)
  mask : int; (* index buckets - 1 *)
  shift : int; (* 63 - log2 buckets: a page's home bucket is one lsr *)
}

let chain_free t =
  for s = 0 to t.entries - 1 do
    t.older.(s) <- (if s + 1 < t.entries then s + 1 else -1)
  done;
  t.free <- 0

let create ~entries =
  if entries < 1 then invalid_arg "Tlb.create: entries < 1";
  let lb = ref 2 in
  while 1 lsl !lb < 4 * entries do
    incr lb
  done;
  let t =
    {
      entries;
      pages = Array.make entries (-1);
      newer = Array.make entries (-1);
      older = Array.make entries (-1);
      head = -1;
      tail = -1;
      free = 0;
      used = 0;
      keys = Array.make (1 lsl !lb) (-1);
      slots = Array.make (1 lsl !lb) 0;
      mask = (1 lsl !lb) - 1;
      shift = 63 - !lb;
    }
  in
  chain_free t;
  t

(* fibonacci hashing, as in [Directory] *)
let home t page = (page * 0x9E3779B97F4A7C1) lsr t.shift

(* the index walks are top-level, so a lookup allocates no closure; the
   index is never full, so every probe run ends at an empty bucket *)
let rec bucket_from t page i =
  let k = Array.unsafe_get t.keys i in
  if k = page || k < 0 then i else bucket_from t page ((i + 1) land t.mask)

let bucket t page = bucket_from t page (home t page)

(* Backward-shift deletion: empty [hole], then move each later entry of
   the probe run whose home bucket does not lie cyclically in (hole, j]
   into the hole, so no run is broken and no tombstone is needed. *)
let rec close_hole t hole j =
  let j = (j + 1) land t.mask in
  let k = t.keys.(j) in
  if k < 0 then t.keys.(hole) <- -1
  else if (j - home t k) land t.mask >= (j - hole) land t.mask then begin
    t.keys.(hole) <- k;
    t.slots.(hole) <- t.slots.(j);
    close_hole t j j
  end
  else close_hole t hole j

let unlink t s =
  let n = t.newer.(s) and o = t.older.(s) in
  if n >= 0 then t.older.(n) <- o else t.head <- o;
  if o >= 0 then t.newer.(o) <- n else t.tail <- n

let push_front t s =
  t.newer.(s) <- -1;
  t.older.(s) <- t.head;
  if t.head >= 0 then t.newer.(t.head) <- s else t.tail <- s;
  t.head <- s

let access t ~page =
  (* the most recent page hits without touching the list *)
  if t.head >= 0 && t.pages.(t.head) = page then true
  else begin
    let b = bucket t page in
    if t.keys.(b) = page then begin
      let s = t.slots.(b) in
      unlink t s;
      push_front t s;
      true
    end
    else begin
      let full = t.used = t.entries in
      let s =
        if not full then begin
          let s = t.free in
          t.free <- t.older.(s);
          t.used <- t.used + 1;
          s
        end
        else begin
          (* evict the least recently used entry *)
          let s = t.tail in
          unlink t s;
          let v = bucket t t.pages.(s) in
          close_hole t v v;
          s
        end
      in
      t.pages.(s) <- page;
      (* an eviction may have shifted the run [page] probes, so its empty
         bucket is found again *)
      let b = if full then bucket t page else b in
      t.keys.(b) <- page;
      t.slots.(b) <- s;
      push_front t s;
      false
    end
  end

let flush t =
  Array.fill t.keys 0 (t.mask + 1) (-1);
  Array.fill t.pages 0 t.entries (-1);
  chain_free t;
  t.head <- -1;
  t.tail <- -1;
  t.used <- 0

let invalidate t ~page =
  let b = bucket t page in
  if t.keys.(b) = page then begin
    let s = t.slots.(b) in
    unlink t s;
    close_hole t b b;
    t.pages.(s) <- -1;
    t.older.(s) <- t.free;
    t.free <- s;
    t.used <- t.used - 1
  end

let resident t = t.used

let iter_resident t f =
  for s = 0 to t.entries - 1 do
    let page = t.pages.(s) in
    if page >= 0 then f ~page
  done

(* Reference TLB: the scanning implementation the constant-time {!Tlb}
   replaced, kept verbatim as its differential oracle. Entries live
   compacted in the first [used] slots of two plain int arrays; a lookup
   scans them, and a miss on a full TLB evicts the entry with the smallest
   last-use stamp (stamps are unique, so the victim is exact LRU). Not
   used on any simulation path: test_machine_fastpath.ml drives random
   operation sequences through both implementations and requires the same
   hits, occupancy and resident pages after every operation. *)

type t = {
  entries : int;
  pages : int array; (* slots 0..used-1 hold resident page numbers *)
  stamps : int array; (* last-use clock per slot *)
  mutable used : int;
  mutable clock : int;
  mutable last : int; (* slot of the most recent hit/refill, -1 after flush *)
}

let create ~entries =
  if entries < 1 then invalid_arg "Tlb.create: entries < 1";
  {
    entries;
    pages = Array.make entries (-1);
    stamps = Array.make entries 0;
    used = 0;
    clock = 0;
    last = -1;
  }

let access t ~page =
  t.clock <- t.clock + 1;
  if t.last >= 0 && t.pages.(t.last) = page then begin
    t.stamps.(t.last) <- t.clock;
    true
  end
  else begin
    let slot = ref (-1) in
    (let i = ref 0 in
     while !slot < 0 && !i < t.used do
       if t.pages.(!i) = page then slot := !i;
       incr i
     done);
    if !slot >= 0 then begin
      t.stamps.(!slot) <- t.clock;
      t.last <- !slot;
      true
    end
    else begin
      let idx =
        if t.used < t.entries then begin
          let i = t.used in
          t.used <- i + 1;
          i
        end
        else begin
          (* evict the LRU entry: stamps are unique, victim is unambiguous *)
          let victim = ref 0 in
          for i = 1 to t.used - 1 do
            if t.stamps.(i) < t.stamps.(!victim) then victim := i
          done;
          !victim
        end
      in
      t.pages.(idx) <- page;
      t.stamps.(idx) <- t.clock;
      t.last <- idx;
      false
    end
  end

let flush t =
  t.used <- 0;
  t.last <- -1

let invalidate t ~page =
  let slot = ref (-1) in
  (let i = ref 0 in
   while !slot < 0 && !i < t.used do
     if t.pages.(!i) = page then slot := !i;
     incr i
   done);
  if !slot >= 0 then begin
    (* keep the resident entries compacted: move the tail entry down *)
    let last = t.used - 1 in
    t.pages.(!slot) <- t.pages.(last);
    t.stamps.(!slot) <- t.stamps.(last);
    t.used <- last;
    t.last <- -1
  end

let resident t = t.used

let iter_resident t f =
  for i = 0 to t.used - 1 do
    f ~page:t.pages.(i)
  done

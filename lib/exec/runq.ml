(* A calendar queue (Brown, CACM 31(10), 1988) specialised to a monotone
   integer clock. Keys in [floor, floor + window) live in a ring of FIFO
   buckets, one bucket per clock value, so a push is an append and a pop
   takes the head of the first non-empty bucket. [floor] is the last popped
   key; because no key is pushed below it, circular bucket order from
   [floor land mask] is key order, and one bucket never holds two keys.

   Keys at or beyond [floor + window] wait in an overflow list in push
   order. Whenever a pop advances the floor far enough, the overflow
   entries that now fit move into the ring oldest-first, before any later
   push can reach their buckets, so FIFO order among equal keys survives
   the move.

   Entries are nodes in parallel arrays ([keys], [next], [vals]) linked
   through [next], with a free list: steady-state push/pop allocates
   nothing. An occupancy bitmap (32 buckets per word) finds the next
   non-empty bucket a word at a time, and the minimum is cached between
   pops, so the engine's per-access peek is one field read. *)

(* One bucket per clock value. On transpose, lu and conv at 128 procs
   (Origin preset) at most 128 of 260k-656k pushes land 4096 or more
   cycles past the last pop: the children of the first fork after the
   serial prefix, which go through the overflow list. An internal
   constant, not a tuning knob. *)
let window = 4096
let mask = window - 1
let nwords = window / 32

(* position of the lowest set bit of a non-zero 32-bit word (de Bruijn
   multiply and a 32-entry table) *)
let debruijn =
  "\000\001\028\002\029\014\024\003\030\022\020\015\025\017\004\008\031\027\013\023\021\019\016\007\026\012\018\006\011\005\010\009"

let ctz32 x =
  Char.code
    (String.unsafe_get debruijn
       ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27))

type 'a t = {
  heads : int array; (* bucket -> first node, -1 if empty *)
  tails : int array; (* bucket -> last node, -1 if empty *)
  bits : int array; (* occupancy: bit (b land 31) of word (b lsr 5) *)
  mutable keys : int array; (* node -> key *)
  mutable next : int array; (* node -> next node in its list, -1 at the end *)
  mutable vals : 'a array; (* node -> payload; length 0 until the first push *)
  mutable free : int; (* free-list head, -1 if none *)
  mutable floor : int; (* last popped key *)
  mutable ring : int; (* entries in the ring *)
  mutable ohead : int; (* overflow list, oldest first *)
  mutable otail : int;
  mutable omin : int; (* smallest overflow key, max_int if none *)
  mutable over : int; (* entries in the overflow list *)
  mutable min : int; (* cached [min_key], valid when [min_ok] *)
  mutable min_ok : bool;
}

let create () =
  {
    heads = Array.make window (-1);
    tails = Array.make window (-1);
    bits = Array.make nwords 0;
    keys = [||];
    next = [||];
    vals = [||];
    free = -1;
    floor = 0;
    ring = 0;
    ohead = -1;
    otail = -1;
    omin = max_int;
    over = 0;
    min = max_int;
    min_ok = true;
  }

let size t = t.ring + t.over

(* double the node pool and thread the new nodes onto the free list *)
let grow t v =
  let cap = Array.length t.keys in
  let cap' = max 16 (2 * cap) in
  let keys' = Array.make cap' 0 and next' = Array.make cap' (-1) in
  let vals' = Array.make cap' v in
  Array.blit t.keys 0 keys' 0 cap;
  Array.blit t.next 0 next' 0 cap;
  Array.blit t.vals 0 vals' 0 cap;
  for i = cap to cap' - 2 do
    next'.(i) <- i + 1
  done;
  t.keys <- keys';
  t.next <- next';
  t.vals <- vals';
  t.free <- cap

(* append node [n] (its [next] already -1) to bucket [b] *)
let ring_append t b n =
  let tl = Array.unsafe_get t.tails b in
  if tl < 0 then begin
    Array.unsafe_set t.heads b n;
    let w = b lsr 5 in
    Array.unsafe_set t.bits w
      (Array.unsafe_get t.bits w lor (1 lsl (b land 31)))
  end
  else Array.unsafe_set t.next tl n;
  Array.unsafe_set t.tails b n;
  t.ring <- t.ring + 1

let push t ~key v =
  if key < t.floor then invalid_arg "Runq.push: key below the last popped key";
  if t.free < 0 then grow t v;
  let n = t.free in
  t.free <- Array.unsafe_get t.next n;
  Array.unsafe_set t.keys n key;
  Array.unsafe_set t.next n (-1);
  Array.unsafe_set t.vals n v;
  if key - t.floor < window then ring_append t (key land mask) n
  else begin
    if t.otail < 0 then t.ohead <- n else Array.unsafe_set t.next t.otail n;
    t.otail <- n;
    t.over <- t.over + 1;
    if key < t.omin then t.omin <- key
  end;
  if t.min_ok && key < t.min then t.min <- key

(* first set bucket in whole words [w0 + i], [w0 + i + 1], ... round the
   ring; top-level, so a scan allocates no closure *)
let rec scan_words bits w0 i =
  let w = (w0 + i) land (nwords - 1) in
  let x = Array.unsafe_get bits w in
  if x <> 0 then (w lsl 5) + ctz32 x else scan_words bits w0 (i + 1)

(* key of the first non-empty bucket at or after the floor's (ring
   non-empty): the floor's word with the bits below it masked off, then
   whole words round the ring; the last of those is the floor's word
   again, whose low bits are the keys furthest ahead *)
let scan t =
  let b0 = t.floor land mask in
  let w0 = b0 lsr 5 in
  let x = Array.unsafe_get t.bits w0 land (-1 lsl (b0 land 31)) in
  let b = if x <> 0 then (w0 lsl 5) + ctz32 x else scan_words t.bits w0 1 in
  t.floor + ((b - b0) land mask)

let min_key t =
  if t.min_ok then t.min
  else begin
    let m = if t.ring > 0 then scan t else t.omin in
    t.min <- m;
    t.min_ok <- true;
    m
  end

(* move every overflow entry that now fits the window into the ring,
   oldest first; the rest stay in the overflow list in their order *)
let migrate t =
  let n = ref t.ohead and kh = ref (-1) and kt = ref (-1) in
  let kmin = ref max_int in
  while !n >= 0 do
    let cur = !n in
    n := t.next.(cur);
    t.next.(cur) <- -1;
    let key = t.keys.(cur) in
    if key - t.floor < window then begin
      t.over <- t.over - 1;
      ring_append t (key land mask) cur
    end
    else begin
      if !kt < 0 then kh := cur else t.next.(!kt) <- cur;
      kt := cur;
      if key < !kmin then kmin := key
    end
  done;
  t.ohead <- !kh;
  t.otail <- !kt;
  t.omin <- !kmin

let pop_value t =
  if size t = 0 then invalid_arg "Runq.pop_value: empty";
  let k = min_key t in
  t.floor <- k;
  if t.omin - k < window then migrate t;
  let b = k land mask in
  let n = Array.unsafe_get t.heads b in
  let nx = Array.unsafe_get t.next n in
  Array.unsafe_set t.heads b nx;
  if nx < 0 then begin
    Array.unsafe_set t.tails b (-1);
    let w = b lsr 5 in
    Array.unsafe_set t.bits w
      (Array.unsafe_get t.bits w land lnot (1 lsl (b land 31)));
    t.min_ok <- false
  end;
  t.ring <- t.ring - 1;
  (* the node's payload slot keeps its (stale) reference until reused;
     payloads are scheduler tasks that outlive the queue entry anyway *)
  Array.unsafe_set t.next n t.free;
  t.free <- n;
  Array.unsafe_get t.vals n

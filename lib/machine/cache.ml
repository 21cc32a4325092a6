type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Bigarray metadata keeps per-processor cache state (large at full
   Origin-2000 scale) out of the GC's marking work. *)
type t = {
  line_shift : int; (* log2 line bytes: an address's line is one lsr *)
  set_mask : int; (* nsets - 1: set_of_line is one land *)
  assoc : int;
  tags : iarr; (* set*assoc + way -> line id, -1 = invalid *)
  dirty : Bytes.t;
  age : iarr; (* LRU stamps *)
  mutable clock : int;
  mutable resident : int;
}

let make_iarr n v =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  Bigarray.Array1.fill a v;
  a

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go x acc = if x <= 1 then acc else go (x lsr 1) (acc + 1) in
  go x 0

let create (cfg : Config.cache_cfg) =
  let nlines = cfg.size_bytes / cfg.line_bytes in
  let nsets = nlines / cfg.assoc in
  if nsets < 1 then invalid_arg "Cache.create: degenerate geometry";
  (* the shift/mask fast path requires power-of-two geometry; anything else
     would silently change the set mapping, so reject it loudly (and
     Config.validate rejects it with a friendlier message first) *)
  if not (is_pow2 cfg.line_bytes) then
    invalid_arg "Cache.create: line_bytes not a power of two";
  if not (is_pow2 nsets) then
    invalid_arg "Cache.create: set count not a power of two";
  {
    line_shift = log2 cfg.line_bytes;
    set_mask = nsets - 1;
    assoc = cfg.assoc;
    tags = make_iarr nlines (-1);
    dirty = Bytes.make nlines '\000';
    age = make_iarr nlines 0;
    clock = 0;
    resident = 0;
  }

let set_of_line t line = line land t.set_mask

(* the probe loop is top-level, so a probe allocates no closure; [tags]
   is annotated so the load compiles inline instead of calling the
   generic Bigarray accessor. [i] stays inside [tags] by construction
   (set index masked, way bounded by assoc), so bounds checks are elided *)
let rec find_from (tags : iarr) line i stop =
  if i >= stop then -1
  else if Bigarray.Array1.unsafe_get tags i = line then i
  else find_from tags line (i + 1) stop

let find_way t line =
  let s = (line land t.set_mask) * t.assoc in
  find_from t.tags line s (s + t.assoc)

let probe t ~line = find_way t line >= 0

let touch t ~line =
  let idx = find_way t line in
  if idx >= 0 then begin
    t.clock <- t.clock + 1;
    Bigarray.Array1.unsafe_set t.age idx t.clock;
    true
  end
  else false

(* the victim packed into an int: [(line lsl 1) lor dirty], or
   [no_victim]; line ids are non-negative, so -1 is free *)
let no_victim = -1
let victim_line v = v lsr 1
let victim_dirty v = v land 1 = 1

let insert t ~line ~dirty =
  let s = set_of_line t line * t.assoc in
  t.clock <- t.clock + 1;
  (* pick an invalid way, else LRU *)
  let victim = ref (s) in
  let found_invalid = ref false in
  for w = 0 to t.assoc - 1 do
    if (not !found_invalid) && Bigarray.Array1.unsafe_get t.tags (s + w) = -1
    then begin
      victim := s + w;
      found_invalid := true
    end
  done;
  if not !found_invalid then begin
    for w = 1 to t.assoc - 1 do
      if
        Bigarray.Array1.unsafe_get t.age (s + w)
        < Bigarray.Array1.unsafe_get t.age !victim
      then victim := s + w
    done
  end;
  let idx = !victim in
  let old = Bigarray.Array1.unsafe_get t.tags idx in
  let ev =
    if old = -1 then no_victim
    else (old lsl 1) lor Char.code (Bytes.unsafe_get t.dirty idx)
  in
  if old = -1 then t.resident <- t.resident + 1;
  Bigarray.Array1.unsafe_set t.tags idx line;
  Bytes.unsafe_set t.dirty idx (if dirty then '\001' else '\000');
  Bigarray.Array1.unsafe_set t.age idx t.clock;
  ev

let set_dirty t ~line =
  let idx = find_way t line in
  if idx >= 0 then Bytes.unsafe_set t.dirty idx '\001'

let is_dirty t ~line =
  let idx = find_way t line in
  idx >= 0 && Bytes.unsafe_get t.dirty idx <> '\000'

let clear_dirty t ~line =
  let idx = find_way t line in
  if idx >= 0 then Bytes.unsafe_set t.dirty idx '\000'

let invalidate t ~line =
  let idx = find_way t line in
  if idx < 0 then false
  else begin
    let was_dirty = Bytes.get t.dirty idx <> '\000' in
    Bigarray.Array1.set t.tags idx (-1);
    Bytes.set t.dirty idx '\000';
    t.resident <- t.resident - 1;
    was_dirty
  end

let invalidate_range t ~lo_addr ~hi_addr =
  let lo = lo_addr lsr t.line_shift and hi = hi_addr lsr t.line_shift in
  let dirty_dropped = ref 0 in
  for line = lo to hi do
    if invalidate t ~line then incr dirty_dropped
  done;
  !dirty_dropped

let clear_dirty_range t ~lo_addr ~hi_addr =
  let lo = lo_addr lsr t.line_shift and hi = hi_addr lsr t.line_shift in
  for line = lo to hi do
    clear_dirty t ~line
  done

let resident_lines t = t.resident

let iter_resident t f =
  let n = Bigarray.Array1.dim t.tags in
  for idx = 0 to n - 1 do
    let line = Bigarray.Array1.get t.tags idx in
    if line >= 0 then f ~line ~dirty:(Bytes.get t.dirty idx <> '\000')
  done

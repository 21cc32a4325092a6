open Ddsm_machine

type pool = { mutable cursor : int; mutable limit : int; mutable slabs : int }

type t = {
  heap : Heap.t;
  mem : Memsys.t;
  slab_words : int;
  page_words : int;
  pools : (int, pool) Hashtbl.t;
}

(* a processor's pool grows by at least this many pages at a time *)
let slab_pages = 4

let create heap mem =
  let page_bytes = (Memsys.config mem).Config.page_bytes in
  let page_words = page_bytes / Heap.word_bytes in
  { heap; mem; slab_words = slab_pages * page_words; page_words; pools = Hashtbl.create 64 }

let pool_of t proc =
  match Hashtbl.find_opt t.pools proc with
  | Some p -> p
  | None ->
      let p = { cursor = 0; limit = 0; slabs = 0 } in
      Hashtbl.replace t.pools proc p;
      p

let grow t proc p ~need =
  let words = max t.slab_words ((need + t.page_words - 1) / t.page_words * t.page_words) in
  let base = Heap.alloc t.heap ~words ~align_words:t.page_words in
  let node = Config.node_of_proc (Memsys.config t.mem) proc in
  Memsys.place_bytes t.mem
    ~lo:(Heap.byte_of_word base)
    ~hi:(Heap.byte_of_word (base + words) - 1)
    ~node;
  p.cursor <- base;
  p.limit <- base + words;
  p.slabs <- p.slabs + 1

let alloc t ~proc ~words =
  if words < 0 then invalid_arg "Pools.alloc";
  let p = pool_of t proc in
  if p.cursor + words > p.limit then grow t proc p ~need:words;
  let addr = p.cursor in
  p.cursor <- p.cursor + words;
  addr

let slabs_allocated t ~proc = (pool_of t proc).slabs

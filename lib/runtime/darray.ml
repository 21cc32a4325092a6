open Ddsm_dist
open Ddsm_machine

type elem = Real | Int

module Meta = struct
  let procs_off ~dim = 3 * dim
  let block_off ~dim = (3 * dim) + 1
  let stor_off ~dim = (3 * dim) + 2
  let bases_off ~ndims = 3 * ndims
  let size ~ndims ~nprocs = (3 * ndims) + nprocs
end

type storage =
  | Plain of { base : int }
  | Regular of { base : int; layout : Layout.t; meta : int }
  | Reshaped of {
      layout : Layout.t;
      meta : int;
      bases : int array;
      stor : int array;
      portion_words : int;
    }

type t = {
  name : string;
  elem : elem;
  extents : int array;
  lower : int array;
  mutable storage : storage;
  mutable canaries : (int * int) list;
  mutable version : int;
      (* bumped on every write the compiled code can see (element stores,
         element arguments passed to callees) and on redistribution; the
         inspector-executor runtime keys cached gather schedules on it *)
}

(* A fresh array record; the lower bounds default to 1 in every
   dimension. *)
let make ~name ~elem ~extents ~lower storage canaries =
  let lower =
    match lower with
    | None -> Array.map (fun _ -> 1) extents
    | Some l ->
        if Array.length l <> Array.length extents then
          invalid_arg "Darray: lower-bound arity mismatch";
        l
  in
  { name; elem; extents; lower; storage; canaries; version = 0 }

(* ------------------------------------------------------------------ *)
(* Heap canaries: one guard word on each side of every allocation this
   module makes (array storage, descriptor blocks, reshaped portions). A
   canary is written to BOTH heap planes, so an overrun through either the
   int or the real path trips it. Checked by {!audit}. *)

let canary_pattern name k = 0x5EED0A11 lxor Hashtbl.hash (name, k) lxor (k * 77)

let plant heap ~name ~k addr =
  let pat = canary_pattern name k in
  Heap.set_int heap addr pat;
  Heap.set_real heap addr (float_of_int pat);
  (addr, pat)

let audit t heap =
  List.concat_map
    (fun (addr, pat) ->
      let int_ok = Heap.get_int heap addr = pat in
      let real_ok = Heap.get_real heap addr = float_of_int pat in
      if int_ok && real_ok then []
      else
        [
          Ddsm_check.Audit.v "heap-canary"
            "array %s: guard word at %d overwritten (%s plane)" t.name addr
            (match (int_ok, real_ok) with
            | false, false -> "both"
            | false, true -> "int"
            | _ -> "real");
        ])
    t.canaries

let element_count t = Array.fold_left ( * ) 1 t.extents

let bump_version t = t.version <- t.version + 1

let zero_based t idx =
  let nd = Array.length t.extents in
  if Array.length idx <> nd then invalid_arg "Darray: index arity mismatch";
  let idx0 = Array.make nd 0 in
  for d = 0 to nd - 1 do
    idx0.(d) <- idx.(d) - t.lower.(d)
  done;
  idx0

let nprocs t =
  match t.storage with
  | Plain _ -> 1
  | Regular { layout; _ } | Reshaped { layout; _ } -> Layout.nprocs layout

(* Column-major element storage, page-aligned and padded to whole pages,
   between two guard words. Returns its base and the guards. *)
let alloc_pages heap ~name ~extents ~page_words =
  let words = Array.fold_left ( * ) 1 extents in
  let padded = (words + page_words - 1) / page_words * page_words in
  let pre = plant heap ~name ~k:0 (Heap.alloc heap ~words:1 ~align_words:1) in
  let base = Heap.alloc heap ~words:padded ~align_words:page_words in
  let post = plant heap ~name ~k:1 (Heap.alloc heap ~words:1 ~align_words:1) in
  (base, [ pre; post ])

let alloc_plain heap ~name ~elem ~extents ?lower ~page_words () =
  let base, canaries = alloc_pages heap ~name ~extents ~page_words in
  make ~name ~elem ~extents ~lower (Plain { base }) canaries

(* Page-placement map for a regular distribution: each page goes to the node
   of the LAST processor (in increasing order) whose portion touches it. *)
let regular_page_homes mem layout ~base_word =
  let cfg = Memsys.config mem in
  let page_bytes = cfg.Config.page_bytes in
  let base_byte = Heap.byte_of_word base_word in
  let homes = Hashtbl.create 256 in
  for p = 0 to Layout.nprocs layout - 1 do
    let node = Config.node_of_proc cfg p in
    List.iter
      (fun (lo, hi) ->
        let lo_pg = (base_byte + lo) / page_bytes
        and hi_pg = (base_byte + hi) / page_bytes in
        for pg = lo_pg to hi_pg do
          Hashtbl.replace homes pg node
        done)
      (Layout.contiguous_ranges layout ~proc:p ~elem_bytes:Heap.word_bytes)
  done;
  homes

(* Write a layout's distribution parameters (procs, block, storage
   extent of every dimension) into the descriptor block at [meta]. *)
let fill_meta heap ~meta layout =
  let stor = Layout.storage_extents layout in
  Array.iteri
    (fun d (dm : Dim_map.t) ->
      Heap.set_int heap (meta + Meta.procs_off ~dim:d) dm.Dim_map.procs;
      Heap.set_int heap (meta + Meta.block_off ~dim:d) dm.Dim_map.block;
      Heap.set_int heap (meta + Meta.stor_off ~dim:d) stor.(d))
    layout.Layout.dims

(* Allocate and fill the descriptor block (distribution parameters and,
   for reshaped arrays, the processor-pointer slots) for a layout. Returns
   the block address and the guard words planted around it. *)
let alloc_meta heap ~name layout =
  let ndims = Array.length layout.Layout.extents in
  let np = Layout.nprocs layout in
  let pre = plant heap ~name ~k:2 (Heap.alloc heap ~words:1 ~align_words:1) in
  let meta = Heap.alloc heap ~words:(Meta.size ~ndims ~nprocs:np) ~align_words:1 in
  let post = plant heap ~name ~k:3 (Heap.alloc heap ~words:1 ~align_words:1) in
  fill_meta heap ~meta layout;
  (meta, [ pre; post ])

let alloc_regular heap mem ~name ~elem ~extents ?lower ~kinds ?onto ~nprocs () =
  let cfg = Memsys.config mem in
  let page_words = cfg.Config.page_bytes / Heap.word_bytes in
  let base, canaries = alloc_pages heap ~name ~extents ~page_words in
  let layout = Layout.make ~extents ~kinds ~nprocs ?onto () in
  let homes = regular_page_homes mem layout ~base_word:base in
  Hashtbl.iter (fun pg node -> Memsys.place_page mem ~page:pg ~node) homes;
  let meta, meta_canaries = alloc_meta heap ~name layout in
  make ~name ~elem ~extents ~lower
    (Regular { base; layout; meta })
    (canaries @ meta_canaries)

(* The storage of a reshaped layout: the descriptor block, then each
   processor's portion (one storage box) from the owner's pool, its
   address in the descriptor's processor-pointer slot and a trailing guard
   word directly after it. Returns the storage and the guards planted. *)
let alloc_reshaped_storage heap pools ~name layout =
  let meta, meta_canaries = alloc_meta heap ~name layout in
  let ndims = Array.length layout.Layout.extents in
  let stor = Layout.storage_extents layout in
  let portion_words = Array.fold_left ( * ) 1 stor in
  let canaries = ref meta_canaries in
  let bases =
    Array.init (Layout.nprocs layout) (fun p ->
        let base = Pools.alloc pools ~proc:p ~words:portion_words in
        Heap.set_int heap (meta + Meta.bases_off ~ndims + p) base;
        let g =
          plant heap ~name ~k:(4 + p) (Pools.alloc pools ~proc:p ~words:1)
        in
        canaries := g :: !canaries;
        base)
  in
  (Reshaped { layout; meta; bases; stor; portion_words }, !canaries)

let alloc_reshaped heap pools ~name ~elem ~extents ?lower ~kinds ?onto ~nprocs
    () =
  let layout = Layout.make ~extents ~kinds ~nprocs ?onto () in
  let storage, canaries = alloc_reshaped_storage heap pools ~name layout in
  make ~name ~elem ~extents ~lower storage canaries

(* Every word range this array owns: element storage (the descriptor block
   and each reshaped portion included), as inclusive [lo, hi] word-address
   pairs. This is the allocation map the profiler attributes accesses by. *)
let word_ranges t =
  let meta_range layout meta =
    let ndims = Array.length t.extents in
    (meta, meta + Meta.size ~ndims ~nprocs:(Layout.nprocs layout) - 1)
  in
  match t.storage with
  | Plain { base } -> [ (base, base + element_count t - 1) ]
  | Regular { base; layout; meta } ->
      [ (base, base + element_count t - 1); meta_range layout meta ]
  | Reshaped { bases; portion_words; layout; meta; _ } ->
      Array.to_list (Array.map (fun b -> (b, b + portion_words - 1)) bases)
      @ [ meta_range layout meta ]

let meta_base t =
  match t.storage with
  | Regular { meta; _ } | Reshaped { meta; _ } -> meta
  | Plain _ -> invalid_arg "Darray.meta_base: not a distributed array"

let portion_base t ~proc =
  match t.storage with
  | Reshaped { bases; _ } ->
      if proc < 0 || proc >= Array.length bases then
        invalid_arg "Darray.portion_base: proc out of range";
      bases.(proc)
  | Plain _ | Regular _ -> invalid_arg "Darray.portion_base: not reshaped"

let portion_words t ~proc =
  match t.storage with
  | Reshaped { portion_words; bases; _ } ->
      if proc < 0 || proc >= Array.length bases then
        invalid_arg "Darray.portion_words: proc out of range";
      portion_words
  | Plain _ | Regular _ -> invalid_arg "Darray.portion_words: not reshaped"

(* The word of an in-bounds element (0-based [idx0]) of an array of
   [extents] under [storage]: plain and regular arrays, the base plus the
   column-major offset; reshaped arrays, the owner's portion base plus the
   element's offset inside the storage box. *)
let word_of storage ~extents idx0 =
  match storage with
  | Plain { base } | Regular { base; _ } ->
      base + Intmath.linear ~radices:extents idx0
  | Reshaped { layout; bases; stor; _ } ->
      bases.(Layout.owner layout idx0) + Layout.local layout ~stor idx0

let copy_elem heap elem ~src ~dst =
  match elem with
  | Real -> Heap.set_real heap dst (Heap.get_real heap src)
  | Int -> Heap.set_int heap dst (Heap.get_int heap src)

(* ------------------------------------------------------------------ *)
(* [c$redistribute]: transition the array to new distribution kinds (and
   possibly a new processor count) under a minimal-communication schedule
   computed closed-form by {!Redist}. *)

type outcome = {
  pages_moved : int;
  words_moved : int;  (** data words that change home processor/node *)
  rounds : int;
  round_words : int;  (** sum over rounds of the largest transfer — the
                          scheduled-time proxy the cost model charges *)
}

(* Regular distribution: plan every page move first, then commit pages,
   layout and descriptor together. The plan is ordered by the all-to-all
   round schedule (nodes pair up round-robin), replacing the unordered
   Hashtbl.iter of old — and because the bulk machine entry applies all
   moves or none, an injected migration failure leaves placement, layout
   and meta all on the OLD state ([None]), never a mix. *)
let redistribute_regular t heap mem ~base ~meta ~layout =
  let cfg = Memsys.config mem in
  let page_words = cfg.Config.page_bytes / Heap.word_bytes in
  let homes = regular_page_homes mem layout ~base_word:base in
  let pt = Memsys.pagetable mem in
  let moves =
    Hashtbl.fold
      (fun pg node acc ->
        match Pagetable.home_opt pt ~page:pg with
        | Some cur when cur = node -> acc
        | cur -> (pg, Option.value ~default:0 cur, node) :: acc)
      homes []
  in
  (* aggregate pages by (source node, dest node): one transfer per pair *)
  let pairs = Hashtbl.create 16 in
  List.iter
    (fun (pg, src, dst) ->
      Hashtbl.replace pairs (src, dst)
        (pg :: Option.value ~default:[] (Hashtbl.find_opt pairs (src, dst))))
    (List.sort compare moves);
  let rounds =
    Redist.rounds_of_moves ~r:(Config.nnodes cfg)
      (Hashtbl.fold
         (fun (src, dst) pgs acc ->
           { Redist.src; dst; words = List.length pgs * page_words } :: acc)
         pairs [])
  in
  (* plan order: round class, then (src, dst), then page, all ascending *)
  let plan =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun { Redist.src; dst; _ } ->
            List.rev_map (fun pg -> (pg, dst)) (Hashtbl.find pairs (src, dst)))
          r.Redist.transfers)
      rounds
  in
  match Memsys.migrate_pages mem plan with
  | Error _ -> None
  | Ok moved ->
      t.storage <- Regular { base; layout; meta };
      fill_meta heap ~meta layout;
      Some
        {
          pages_moved = moved;
          words_moved = moved * page_words;
          rounds = List.length rounds;
          round_words = Redist.round_words rounds;
        }

(* Reshaped distribution: the portions themselves are rebuilt. Build the
   new descriptor block and portions ASIDE (readers keep resolving
   addresses through the old descriptor), copy every element under the
   {!Redist} schedule, then install the new storage with one write of
   [t.storage] — the RCU pattern: no intermediate state is ever
   observable, and a failure before the swap leaves the array untouched. *)
let redistribute_reshaped t heap pools ~old_layout ~layout =
  let sched = Redist.build ~src:old_layout ~dst:layout in
  let old = t.storage in
  let storage, canaries = alloc_reshaped_storage heap pools ~name:t.name layout in
  for p = 0 to Layout.nprocs layout - 1 do
    Layout.iter_portion layout ~proc:p (fun idx0 ->
        copy_elem heap t.elem
          ~src:(word_of old ~extents:t.extents idx0)
          ~dst:(word_of storage ~extents:t.extents idx0))
  done;
  (* install: one write of the storage record; old portions and
     descriptor stay valid (and guarded) for any reader still holding the
     old addresses *)
  t.storage <- storage;
  t.canaries <- canaries @ t.canaries;
  Some
    {
      pages_moved = 0;
      words_moved = sched.Redist.cross_words;
      rounds = Redist.nrounds sched;
      round_words = Redist.round_words sched.Redist.rounds;
    }

let redistribute t heap mem pools ~kinds ?onto ~nprocs () =
  let relayout () = Layout.make ~extents:t.extents ~kinds ~nprocs ?onto () in
  match t.storage with
  | Plain _ ->
      invalid_arg
        (Printf.sprintf "Darray.redistribute: array %s is not distributed"
           t.name)
  | Regular { base; meta; _ } ->
      redistribute_regular t heap mem ~base ~meta ~layout:(relayout ())
  | Reshaped { layout = old_layout; _ } ->
      redistribute_reshaped t heap pools ~old_layout ~layout:(relayout ())

(* Number of consecutive *global* elements, starting at [idx], that are
   stored contiguously: along the first dimension up to the end of the
   owner's block/chunk (this is the "portion" an element argument passes to
   a subroutine, §3.2.1). Plain arrays: the rest of the array. *)
let portion_run t idx =
  let idx0 = zero_based t idx in
  match t.storage with
  | Plain _ -> element_count t - Intmath.linear ~radices:t.extents idx0
  | Regular { layout; _ } | Reshaped { layout; _ } -> (
      let i0 = idx0.(0) in
      let dm = layout.Layout.dims.(0) in
      (* a chunk-sized run is clamped to the array tail: the last chunk of
         a non-divisible extent is partial, and a run must never reach
         past the end of the dimension *)
      let tail = t.extents.(0) - i0 in
      match dm.Dim_map.kind with
      | Kind.Star -> tail
      | Kind.Block -> min (dm.Dim_map.block - (i0 mod dm.Dim_map.block)) tail
      | Kind.Cyclic -> 1
      | Kind.Cyclic_k k -> min (k - (i0 mod k)) tail)

let word_addr t idx =
  let idx0 = zero_based t idx in
  for d = 0 to Array.length idx0 - 1 do
    if idx0.(d) < 0 || idx0.(d) >= t.extents.(d) then
      invalid_arg
        (Printf.sprintf "array %s: index %d out of bounds in dim %d" t.name
           idx.(d) (d + 1))
  done;
  word_of t.storage ~extents:t.extents idx0

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
  | Normal of { base : int }
  | Reshaped of { meta_base : int; bases : int array; portion_words : int }

type t = {
  name : string;
  elem : elem;
  extents : int array;
  lower : int array;
  mutable layout : Layout.t option;
  reshaped : bool;
  mutable storage : storage;
  mutable meta : int option;
  mutable canaries : (int * int) list;
  mutable version : int;
      (* bumped on every write the compiled code can see (element stores,
         element arguments passed to callees) and on redistribution; the
         inspector-executor runtime keys cached gather schedules on it *)
}

let default_lower extents = Array.map (fun _ -> 1) extents

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
  if Array.length idx <> Array.length t.extents then
    invalid_arg "Darray: index arity mismatch";
  Array.mapi (fun d i -> i - t.lower.(d)) idx

let nprocs t = match t.layout with None -> 1 | Some l -> Layout.nprocs l

let alloc_plain heap ~name ~elem ~extents ?lower ~page_words () =
  let lower = match lower with Some l -> l | None -> default_lower extents in
  if Array.length lower <> Array.length extents then
    invalid_arg "Darray.alloc_plain: lower-bound arity mismatch";
  let words = Array.fold_left ( * ) 1 extents in
  let padded = (words + page_words - 1) / page_words * page_words in
  let pre = plant heap ~name ~k:0 (Heap.alloc heap ~words:1 ~align_words:1) in
  let base = Heap.alloc heap ~words:padded ~align_words:page_words in
  let post = plant heap ~name ~k:1 (Heap.alloc heap ~words:1 ~align_words:1) in
  {
    name;
    elem;
    extents;
    lower;
    layout = None;
    reshaped = false;
    storage = Normal { base };
    meta = None;
    canaries = [ pre; post ];
    version = 0;
  }

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

(* Allocate and fill the descriptor block (distribution parameters and,
   for reshaped arrays, the processor-pointer slots) for a layout. Returns
   the block address and the guard words planted around it. *)
let alloc_meta heap ~name layout =
  let ndims = Array.length layout.Layout.extents in
  let np = Layout.nprocs layout in
  let stor = Layout.storage_extents layout in
  let pre = plant heap ~name ~k:2 (Heap.alloc heap ~words:1 ~align_words:1) in
  let meta_base =
    Heap.alloc heap ~words:(Meta.size ~ndims ~nprocs:np) ~align_words:1
  in
  let post = plant heap ~name ~k:3 (Heap.alloc heap ~words:1 ~align_words:1) in
  Array.iteri
    (fun d (dm : Dim_map.t) ->
      Heap.set_int heap (meta_base + Meta.procs_off ~dim:d) dm.Dim_map.procs;
      Heap.set_int heap (meta_base + Meta.block_off ~dim:d) dm.Dim_map.block;
      Heap.set_int heap (meta_base + Meta.stor_off ~dim:d) stor.(d))
    layout.Layout.dims;
  (meta_base, [ pre; post ])

let alloc_regular heap mem ~name ~elem ~extents ?lower ~kinds ?onto ~nprocs () =
  let cfg = Memsys.config mem in
  let page_words = cfg.Config.page_bytes / Heap.word_bytes in
  let t = alloc_plain heap ~name ~elem ~extents ?lower ~page_words () in
  let layout = Layout.make ~extents ~kinds ~nprocs ?onto () in
  let base = match t.storage with Normal { base } -> base | _ -> assert false in
  let homes = regular_page_homes mem layout ~base_word:base in
  Hashtbl.iter (fun pg node -> Memsys.place_page mem ~page:pg ~node) homes;
  let meta_base, meta_canaries = alloc_meta heap ~name layout in
  {
    t with
    layout = Some layout;
    meta = Some meta_base;
    canaries = t.canaries @ meta_canaries;
  }

(* Per-processor portion allocation for a reshaped layout: pool storage on
   each owner's node, processor-pointer slots in the descriptor block, and
   a trailing guard word after every portion. *)
let alloc_portions heap pools ~name layout ~meta_base =
  let np = Layout.nprocs layout in
  let ndims = Array.length layout.Layout.extents in
  let portion_words =
    Array.fold_left ( * ) 1 (Layout.storage_extents layout)
  in
  let canaries = ref [] in
  let bases =
    Array.init np (fun p ->
        let base = Pools.alloc pools ~proc:p ~words:portion_words in
        Heap.set_int heap (meta_base + Meta.bases_off ~ndims + p) base;
        (* trailing guard from the same pool, directly after the portion *)
        let g =
          plant heap ~name ~k:(4 + p) (Pools.alloc pools ~proc:p ~words:1)
        in
        canaries := g :: !canaries;
        base)
  in
  (bases, portion_words, !canaries)

let alloc_reshaped heap mem pools ~name ~elem ~extents ?lower ~kinds ?onto
    ~nprocs () =
  ignore (Memsys.config mem);
  let lower = match lower with Some l -> l | None -> default_lower extents in
  let layout = Layout.make ~extents ~kinds ~nprocs ?onto () in
  (* descriptor block: distribution parameters + processor-pointer array *)
  let meta_base, meta_canaries = alloc_meta heap ~name layout in
  let bases, portion_words, portion_canaries =
    alloc_portions heap pools ~name layout ~meta_base
  in
  {
    name;
    elem;
    extents;
    lower;
    layout = Some layout;
    reshaped = true;
    storage = Reshaped { meta_base; bases; portion_words };
    meta = Some meta_base;
    canaries = portion_canaries @ meta_canaries;
    version = 0;
  }

(* Every word range this array owns: element storage (the descriptor block
   and each reshaped portion included), as inclusive [lo, hi] word-address
   pairs. This is the allocation map the profiler attributes accesses by. *)
let word_ranges t =
  let meta =
    match t.meta with
    | None -> []
    | Some m ->
        let ndims = Array.length t.extents in
        let np = nprocs t in
        [ (m, m + Meta.size ~ndims ~nprocs:np - 1) ]
  in
  match t.storage with
  | Normal { base } -> (base, base + element_count t - 1) :: meta
  | Reshaped { bases; portion_words; _ } ->
      Array.to_list (Array.map (fun b -> (b, b + portion_words - 1)) bases)
      @ meta

let meta_base t =
  match t.meta with
  | Some m -> m
  | None -> invalid_arg "Darray.meta_base: not a distributed array"

let portion_base t ~proc =
  match t.storage with
  | Reshaped { bases; _ } ->
      if proc < 0 || proc >= Array.length bases then
        invalid_arg "Darray.portion_base: proc out of range";
      bases.(proc)
  | Normal _ -> invalid_arg "Darray.portion_base: not reshaped"

let portion_words t ~proc =
  match t.storage with
  | Reshaped { portion_words; bases; _ } ->
      if proc < 0 || proc >= Array.length bases then
        invalid_arg "Darray.portion_words: proc out of range";
      portion_words
  | Normal _ -> invalid_arg "Darray.portion_words: not reshaped"

let refill_meta heap t layout =
  match t.meta with
  | None -> ()
  | Some meta_base ->
      let stor = Layout.storage_extents layout in
      Array.iteri
        (fun d (dm : Dim_map.t) ->
          Heap.set_int heap (meta_base + Meta.procs_off ~dim:d) dm.Dim_map.procs;
          Heap.set_int heap (meta_base + Meta.block_off ~dim:d) dm.Dim_map.block;
          Heap.set_int heap (meta_base + Meta.stor_off ~dim:d) stor.(d))
        layout.Layout.dims

(* ------------------------------------------------------------------ *)
(* [c$redistribute]: transition the array to new distribution kinds (and
   possibly a new processor count) under a minimal-communication schedule
   computed closed-form by {!Redist}. *)

type outcome = {
  pages_moved : int;
  words_moved : int;  (** data words that change home processor/node *)
  total_words : int;  (** words touched at all (reshaped copies include
                          the same-owner words; page moves touch nothing
                          else) *)
  rounds : int;
  round_words : int;  (** sum over rounds of the largest transfer — the
                          scheduled-time proxy the cost model charges *)
}

type progress = Moved of outcome | Busy

(* Regular distribution: plan every page move first, then commit pages,
   layout and descriptor together. The plan is ordered by the all-to-all
   round schedule (nodes pair up round-robin), replacing the unordered
   Hashtbl.iter of old — and because the bulk machine entry applies all
   moves or none, an injected migration failure leaves placement, layout
   and meta all on the OLD state ([Busy]), never a mix. *)
let redistribute_regular t heap mem ~base ~layout =
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
  | Error _ -> Ok Busy
  | Ok moved ->
      t.layout <- Some layout;
      refill_meta heap t layout;
      Ok
        (Moved
           {
             pages_moved = moved;
             words_moved = moved * page_words;
             total_words = moved * page_words;
             rounds = List.length rounds;
             round_words = Redist.round_words rounds;
           })

(* Reshaped distribution: the portions themselves are rebuilt. Build the
   new descriptor block and portions ASIDE (readers keep resolving
   addresses through the old descriptor), copy every element under the
   {!Redist} schedule, then install the new storage with one swap of the
   host-side descriptor — the RCU pattern: no intermediate state is ever
   observable, and a failure before the swap leaves the array untouched. *)
let redistribute_reshaped t heap pools ~old_layout ~old_bases ~layout =
  let sched = Redist.build ~src:old_layout ~dst:layout in
  let meta_base, meta_canaries = alloc_meta heap ~name:t.name layout in
  let bases, portion_words, portion_canaries =
    alloc_portions heap pools ~name:t.name layout ~meta_base
  in
  let old_stor = Layout.storage_extents old_layout in
  let new_stor = Layout.storage_extents layout in
  let loclin stor offs =
    let lin = ref 0 and stride = ref 1 in
    Array.iteri
      (fun d off ->
        lin := !lin + (off * !stride);
        stride := !stride * stor.(d))
      offs;
    !lin
  in
  let copy =
    match t.elem with
    | Real -> fun src dst -> Heap.set_real heap dst (Heap.get_real heap src)
    | Int -> fun src dst -> Heap.set_int heap dst (Heap.get_int heap src)
  in
  for p = 0 to Layout.nprocs layout - 1 do
    Layout.iter_portion layout ~proc:p (fun idx0 ->
        let src =
          old_bases.(Layout.owner old_layout idx0)
          + loclin old_stor (Layout.offsets old_layout idx0)
        in
        copy src (bases.(p) + loclin new_stor (Layout.offsets layout idx0)))
  done;
  (* install: one host-side swap; old portions and descriptor stay valid
     (and guarded) for any reader still holding the old addresses *)
  t.storage <- Reshaped { meta_base; bases; portion_words };
  t.meta <- Some meta_base;
  t.layout <- Some layout;
  t.canaries <- portion_canaries @ meta_canaries @ t.canaries;
  Ok
    (Moved
       {
         pages_moved = 0;
         words_moved = sched.Redist.cross_words;
         total_words = sched.Redist.total_words;
         rounds = Redist.nrounds sched;
         round_words = Redist.round_words sched.Redist.rounds;
       })

let redistribute t heap mem ?pools ~kinds ?onto ~nprocs () =
  match (t.layout, t.storage) with
  | None, _ -> Error (Printf.sprintf "array %s: not a distributed array" t.name)
  | Some _, Normal { base } ->
      let layout = Layout.make ~extents:t.extents ~kinds ~nprocs ?onto () in
      redistribute_regular t heap mem ~base ~layout
  | Some old_layout, Reshaped { bases = old_bases; _ } -> (
      match pools with
      | None ->
          Error
            (Printf.sprintf
               "array %s: reshaped redistribution needs the storage pools"
               t.name)
      | Some pools ->
          let layout = Layout.make ~extents:t.extents ~kinds ~nprocs ?onto () in
          redistribute_reshaped t heap pools ~old_layout ~old_bases ~layout)

(* Number of consecutive *global* elements, starting at [idx], that are
   stored contiguously: along the first dimension up to the end of the
   owner's block/chunk (this is the "portion" an element argument passes to
   a subroutine, §3.2.1). Plain arrays: the rest of the array. *)
let portion_run t idx =
  let idx0 = zero_based t idx in
  match t.layout with
  | None ->
      let lin = ref 0 and stride = ref 1 in
      Array.iteri
        (fun d i ->
          lin := !lin + (i * !stride);
          stride := !stride * t.extents.(d))
        idx0;
      element_count t - !lin
  | Some l -> (
      let i0 = idx0.(0) in
      let dm = l.Layout.dims.(0) in
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
  Array.iteri
    (fun d i ->
      if i < 0 || i >= t.extents.(d) then
        invalid_arg
          (Printf.sprintf "array %s: index %d out of bounds in dim %d" t.name
             (i + t.lower.(d)) (d + 1)))
    idx0;
  match (t.storage, t.layout) with
  | Normal { base }, _ ->
      let addr = ref base and stride = ref 1 in
      Array.iteri
        (fun d i ->
          addr := !addr + (i * !stride);
          stride := !stride * t.extents.(d))
        idx0;
      !addr
  | Reshaped _, Some layout ->
      let p = Layout.owner layout idx0 in
      let offs = Layout.offsets layout idx0 in
      let stor = Layout.storage_extents layout in
      let loclin = ref 0 and stride = ref 1 in
      Array.iteri
        (fun d off ->
          loclin := !loclin + (off * !stride);
          stride := !stride * stor.(d))
        offs;
      portion_base t ~proc:p + !loclin
  | Reshaped _, None -> assert false

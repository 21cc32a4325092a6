type policy = First_touch | Round_robin

(* Virtual page numbers are dense (heap addresses start at 0), so the
   page -> (node, frame) map is a growable flat int array of packed
   node|frame words: translation on the access fast path is one bounds
   check and one load, no hashing and no allocation. -1 marks an unplaced
   page. The frame-allocation logic (coloring, spilling, overflow) is
   unchanged from the Hashtbl-based implementation — frames must stay
   bit-identical because they feed physical addresses and therefore cache
   sets. The test-only [test/pagetable_ref.ml] preserves the map-based
   implementation as the differential-oracle reference. *)

let node_bits = 20
let node_mask = (1 lsl node_bits) - 1

type t = {
  policy : policy;
  mutable table : int array; (* page -> (frame lsl node_bits) lor node; -1 = unplaced *)
  mutable hi : int; (* one past the highest placed page *)
  mutable placed : int;
  used : int array; (* frames allocated per node *)
  color_next : int array array; (* per-node, per-color allocation round *)
  colors : int;
  capacity : int; (* frames per node *)
  mutable rr_next : int;
  mutable overflow : int; (* machine-full allocations (separate frame region) *)
  nnodes : int;
}

let create cfg policy =
  let nnodes = Config.nnodes cfg in
  (* page colors: one per way-size/page-size class, as in the IRIX
     page-coloring algorithm the paper credits (§8.2) — physical frames are
     chosen so a page keeps its virtual color and contiguous virtual
     addresses do not conflict in the (physically indexed) cache *)
  let colors =
    max 1
      (cfg.Config.l2.Config.size_bytes / cfg.Config.l2.Config.assoc
      / cfg.Config.page_bytes)
  in
  {
    policy;
    table = Array.make 4096 (-1);
    hi = 0;
    placed = 0;
    used = Array.make nnodes 0;
    color_next = Array.init nnodes (fun _ -> Array.make colors 0);
    colors;
    capacity = max 1 (Config.pages_per_node cfg);
    rr_next = 0;
    overflow = 0;
    nnodes;
  }

let policy t = t.policy

let pack ~node ~frame = (frame lsl node_bits) lor node
let packed_node p = p land node_mask
let packed_frame p = p lsr node_bits

let ensure t page =
  let n = Array.length t.table in
  if page >= n then begin
    let n' = ref (2 * n) in
    while page >= !n' do
      n' := 2 * !n'
    done;
    let table' = Array.make !n' (-1) in
    Array.blit t.table 0 table' 0 n;
    t.table <- table'
  end

(* packed word of a page, or -1 when unplaced (or out of any table yet
   grown) *)
let find t page =
  if page < 0 then invalid_arg "Pagetable: negative page";
  if page < Array.length t.table then Array.unsafe_get t.table page else -1

let store t page packed =
  ensure t page;
  if t.table.(page) < 0 then t.placed <- t.placed + 1;
  t.table.(page) <- packed;
  if page >= t.hi then t.hi <- page + 1

(* global frame id = node * frame_stride + local frame; local frames are
   color + round*colors with round bounded by the node capacity (plus the
   overflow slack when the whole machine is full) *)
let frame_stride t = (t.capacity + 4) * t.colors

let node_of_frame t f = min (t.nnodes - 1) (f / frame_stride t)

(* the packed word of a fresh frame of [color] on node [n] *)
let take t n color =
  let round = t.color_next.(n).(color) in
  t.color_next.(n).(color) <- round + 1;
  t.used.(n) <- t.used.(n) + 1;
  pack ~node:n ~frame:((n * frame_stride t) + color + (round * t.colors))

(* try node [n], then the following ones; top-level, so a first touch
   allocates nothing *)
let rec alloc_from t ~node ~color n tries =
  if tries >= t.nnodes then begin
    (* whole machine full: frames come from a dedicated overflow region
       above every node's range (no swapping is modelled), colored like
       normal allocations *)
    let f = t.overflow in
    t.overflow <- f + 1;
    pack ~node ~frame:((t.nnodes * frame_stride t) + color + (f * t.colors))
  end
  else if t.used.(n) < t.capacity then take t n color
  else alloc_from t ~node ~color ((n + 1) mod t.nnodes) (tries + 1)

(* Allocate a colored frame on [node] for virtual page [page], spilling to
   following nodes when full, and return its packed word. If the whole
   machine is full, keep over-allocating on the preferred node (the
   simulator does not model swapping). The local frame is congruent to the
   page's color, so the physically indexed cache sees the virtual layout's
   conflict pattern. *)
let alloc_frame t node ~page =
  alloc_from t ~node ~color:(page mod t.colors) node 0

let place_new t ~page ~node = store t page (alloc_frame t node ~page)

let place t ~page ~node =
  if find t page < 0 then place_new t ~page ~node

(* fast path: packed (node, frame) word, placing per policy on first touch *)
let translate t ~page ~faulting_node =
  let p = find t page in
  if p >= 0 then p
  else begin
    let node =
      match t.policy with
      | First_touch -> faulting_node
      | Round_robin ->
          let n = t.rr_next in
          t.rr_next <- (t.rr_next + 1) mod t.nnodes;
          n
    in
    place_new t ~page ~node;
    t.table.(page)
  end

let home t ~page ~faulting_node = packed_node (translate t ~page ~faulting_node)

let home_opt t ~page =
  let p = find t page in
  if p < 0 then None else Some (packed_node p)

let migrate t ~page ~node = store t page (alloc_frame t node ~page)

let frame t ~page =
  let p = find t page in
  if p < 0 then invalid_arg "Pagetable.frame: page not placed"
  else packed_frame p

let pages_on_node t ~node =
  let c = ref 0 in
  for page = 0 to t.hi - 1 do
    let p = t.table.(page) in
    if p >= 0 && packed_node p = node then incr c
  done;
  !c

let iter t f =
  for page = 0 to t.hi - 1 do
    let p = t.table.(page) in
    if p >= 0 then f ~page ~node:(packed_node p) ~frame:(packed_frame p)
  done

(* physical frames are unique, and (outside the overflow region used when
   the whole machine is full) a frame decodes back to the node its page is
   placed on *)
let audit t =
  let module Audit = Ddsm_check.Audit in
  let vs = ref [] in
  let frames = Hashtbl.create (max 16 t.placed) in
  iter t (fun ~page ~node ~frame ->
      (match Hashtbl.find_opt frames frame with
      | Some other ->
          vs :=
            Audit.v "frame-uniqueness"
              "frame %d assigned to both page %d and page %d" frame other page
            :: !vs
      | None -> Hashtbl.add frames frame page);
      let overflow = frame >= t.nnodes * frame_stride t in
      if (not overflow) && node_of_frame t frame <> node then
        vs :=
          Audit.v "frame-node"
            "page %d: placed on node %d but frame %d decodes to node %d" page
            node frame (node_of_frame t frame)
          :: !vs);
  List.rev !vs

let placed_pages t = t.placed

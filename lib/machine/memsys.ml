module Fault = Ddsm_check.Fault
module Audit = Ddsm_check.Audit

(* Cause-tagged breakdown of one access, emitted to the optional probe.
   The six cycle fields partition the latency charged by [access]:
   ev_tlb + ev_hit + ev_local + ev_remote + ev_contention + ev_coherence
   is exactly the returned latency (and the mem_stall_cycles increment). *)
type access_event = {
  mutable ev_proc : int;
  mutable ev_addr : int;
  mutable ev_write : bool;
  mutable ev_now : int;
  mutable ev_tlb : int;
  mutable ev_hit : int;
  mutable ev_local : int;
  mutable ev_remote : int;
  mutable ev_contention : int;
  mutable ev_coherence : int;
  mutable ev_tlb_flushed : bool;
}

type t = {
  cfg : Config.t;
  topo : Topology.t;
  pt : Pagetable.t;
  tlbs : Tlb.t array;
  l1s : Cache.t array;
  l2s : Cache.t array;
  dir : Directory.t;
  busy_until : int array; (* per-node memory module *)
  ctrs : Counters.t array;
  page_shift : int;
  page_mask : int;
  l1_shift : int; (* log2 L1 line bytes *)
  l2_shift : int; (* log2 L2 line bytes *)
  l1_hit_cycles : int;
  tlb_miss_cycles : int;
  (* per-processor one-entry translation memo: the last translated page and
     its packed (node, frame) word. Purely a host-side cache of pagetable
     state — it never changes a charged cycle (translation itself is free in
     simulated time; only TLB misses cost cycles). Invalidated on migrate/
     place/TLB-flush faults; [audit] cross-checks it against the table. *)
  memo_page : int array; (* -1 = empty *)
  memo_packed : int array;
  fault : Fault.t;
  faults_off : bool; (* Fault.none: skip the per-access fault probes *)
  accesses : int array; (* per-proc translation count, for TLB-flush faults *)
  mutable migrations : int; (* machine-wide count, for migrate-fail faults *)
  mutable probe : (access_event -> unit) option;
  event : access_event; (* refilled in place for every probe call *)
}

let log2 x =
  let rec go x acc = if x <= 1 then acc else go (x lsr 1) (acc + 1) in
  go x 0

let create cfg ~policy ?(fault = Fault.none) () =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Memsys.create: " ^ e));
  let n = cfg.Config.nprocs in
  {
    cfg;
    topo = Topology.create cfg;
    pt = Pagetable.create cfg policy;
    tlbs = Array.init n (fun _ -> Tlb.create ~entries:cfg.Config.tlb_entries);
    l1s = Array.init n (fun _ -> Cache.create cfg.Config.l1);
    l2s = Array.init n (fun _ -> Cache.create cfg.Config.l2);
    dir = Directory.create ~nprocs:n;
    busy_until = Array.make (Config.nnodes cfg) 0;
    ctrs = Array.init n (fun _ -> Counters.create ());
    page_shift = log2 cfg.Config.page_bytes;
    page_mask = cfg.Config.page_bytes - 1;
    l1_shift = log2 cfg.Config.l1.Config.line_bytes;
    l2_shift = log2 cfg.Config.l2.Config.line_bytes;
    l1_hit_cycles = cfg.Config.l1.Config.hit_cycles;
    tlb_miss_cycles = cfg.Config.tlb_miss_cycles;
    memo_page = Array.make n (-1);
    memo_packed = Array.make n (-1);
    fault;
    faults_off = Fault.is_none fault;
    accesses = Array.make n 0;
    migrations = 0;
    probe = None;
    event =
      { ev_proc = 0; ev_addr = 0; ev_write = false; ev_now = 0; ev_tlb = 0;
        ev_hit = 0; ev_local = 0; ev_remote = 0; ev_contention = 0;
        ev_coherence = 0; ev_tlb_flushed = false };
  }

let invalidate_memos t = Array.fill t.memo_page 0 (Array.length t.memo_page) (-1)

let config t = t.cfg
let fault t = t.fault
let pagetable t = t.pt
let page_of_addr t addr = addr lsr t.page_shift
let home_of_addr t addr = Pagetable.home_opt t.pt ~page:(page_of_addr t addr)
let set_probe t p = t.probe <- p
let event t = t.event
let counters t ~proc = t.ctrs.(proc)
let total_counters t = Counters.sum t.ctrs

let place_page t ~page ~node =
  Pagetable.place t.pt ~page ~node;
  invalidate_memos t

let place_bytes t ~lo ~hi ~node =
  for page = lo lsr t.page_shift to hi lsr t.page_shift do
    Pagetable.place t.pt ~page ~node
  done;
  invalidate_memos t

let migrate_page t ~page ~node =
  Pagetable.migrate t.pt ~page ~node;
  (* migration allocates a fresh frame: stale translations anywhere would
     hand out the old frame's cache lines, so shoot the page down in every
     processor's TLB and drop the one-entry translation memos *)
  Array.iter (fun tlb -> Tlb.invalidate tlb ~page) t.tlbs;
  invalidate_memos t

(* Bulk scheduled migration: apply every (page, node) move or none. Each
   move consults the fault plan's migrate-fail counter; on an injected
   failure the already-applied moves are migrated BACK to their recorded
   homes (rollback never consults the counter — a rollback that could
   itself fail would leave the very half-moved state the bulk entry
   exists to rule out) and the index of the failed move is returned. *)
let migrate_pages t moves =
  let applied = ref [] in
  let rollback () =
    List.iter (fun (page, home) -> migrate_page t ~page ~node:home) !applied
  in
  let rec go i = function
    | [] -> Ok i
    | (page, node) :: rest ->
        let migration = t.migrations in
        t.migrations <- migration + 1;
        if Fault.migration_fails t.fault ~migration then begin
          rollback ();
          Error i
        end
        else begin
          (match Pagetable.home_opt t.pt ~page with
          | Some home -> applied := (page, home) :: !applied
          | None -> ());
          migrate_page t ~page ~node;
          go (i + 1) rest
        end
  in
  go 0 moves

(* Invalidate a physical L2 line (and the L1 lines under it) in processor
   [victim]'s caches. Returns true if the dropped L2 copy was dirty. *)
let smash_line t ~victim ~phys_line =
  let l2 = t.l2s.(victim) in
  let lo = phys_line * t.cfg.Config.l2.Config.line_bytes in
  let hi = lo + t.cfg.Config.l2.Config.line_bytes - 1 in
  ignore (Cache.invalidate_range t.l1s.(victim) ~lo_addr:lo ~hi_addr:hi);
  Cache.invalidate l2 ~line:phys_line

(* Reserve the memory module of [node] for one line transfer arriving at
   [arrival]; returns the queueing delay. An injected slow-node fault
   stretches the module's service occupancy. *)
let module_service t ~node ~arrival =
  let start = max arrival t.busy_until.(node) in
  let occupancy =
    t.cfg.Config.mem_occupancy_cycles + Fault.mem_extra t.fault ~node
  in
  t.busy_until.(node) <- start + occupancy;
  start - arrival

(* Enqueue a writeback at the line's home module [node]; not on the
   writer's critical path, but it consumes bandwidth. Callers that already
   resolved the line's home thread it through instead of re-deriving it. *)
let enqueue_writeback t ~node ~now = ignore (module_service t ~node ~arrival:now)

(* home node of a physical L2 line, decoded arithmetically from its frame *)
let node_of_phys_line t ~phys_line =
  Pagetable.node_of_frame t.pt ((phys_line lsl t.l2_shift) lsr t.page_shift)

let handle_l2_eviction t ~proc ~now (ev : Cache.evicted option) =
  match ev with
  | None -> ()
  | Some { line; dirty } ->
      (* inclusion: drop the L1 lines under the evicted L2 line *)
      let lo = line lsl t.l2_shift in
      let hi = lo + t.cfg.Config.l2.Config.line_bytes - 1 in
      ignore (Cache.invalidate_range t.l1s.(proc) ~lo_addr:lo ~hi_addr:hi);
      Directory.drop t.dir ~line ~proc;
      if dirty then begin
        t.ctrs.(proc).Counters.writebacks <- t.ctrs.(proc).Counters.writebacks + 1;
        (* the victim line's home is not the current access's home: decode
           it from the frame id (pure arithmetic, no table lookup) *)
        enqueue_writeback t ~node:(node_of_phys_line t ~phys_line:line) ~now
      end

(* fill the machine's one event record and hand it to the probe *)
let emit t probe ~proc ~addr ~write ~now ~tlb ~hit ~local ~remote ~contention
    ~coherence ~tlb_flushed =
  let e = t.event in
  e.ev_proc <- proc;
  e.ev_addr <- addr;
  e.ev_write <- write;
  e.ev_now <- now;
  e.ev_tlb <- tlb;
  e.ev_hit <- hit;
  e.ev_local <- local;
  e.ev_remote <- remote;
  e.ev_contention <- contention;
  e.ev_coherence <- coherence;
  e.ev_tlb_flushed <- tlb_flushed;
  probe e

let rec access t ~proc ~addr ~write ~now =
  (* [proc] indexes every per-processor array and is engine-supplied and
     in range; the hot path elides the redundant bounds checks *)
  let c = Array.unsafe_get t.ctrs proc in
  if write then c.Counters.stores <- c.Counters.stores + 1
  else c.Counters.loads <- c.Counters.loads + 1;
  let page = addr lsr t.page_shift in
  (* injected TLB-shootdown fault: periodically drop this processor's
     translations (costs only the refill misses) *)
  let acc = Array.unsafe_get t.accesses proc + 1 in
  Array.unsafe_set t.accesses proc acc;
  let tlb_flushed =
    (not t.faults_off) && Fault.tlb_flush_due t.fault ~accesses:acc
  in
  if tlb_flushed then begin
    Tlb.flush t.tlbs.(proc);
    t.memo_page.(proc) <- -1
  end;
  (* 1. address translation: TLB (the only part that costs cycles), then
     the one-entry memo in front of the flat page table *)
  let tlb_c =
    if Tlb.access (Array.unsafe_get t.tlbs proc) ~page then 0
    else begin
      c.Counters.tlb_misses <- c.Counters.tlb_misses + 1;
      c.Counters.tlb_stall_cycles <-
        c.Counters.tlb_stall_cycles + t.tlb_miss_cycles;
      t.tlb_miss_cycles
    end
  in
  let packed =
    if Array.unsafe_get t.memo_page proc = page then
      Array.unsafe_get t.memo_packed proc
    else begin
      let p =
        Pagetable.translate t.pt ~page
          ~faulting_node:(Config.node_of_proc t.cfg proc)
      in
      Array.unsafe_set t.memo_page proc page;
      Array.unsafe_set t.memo_packed proc p;
      p
    end
  in
  let home = Pagetable.packed_node packed in
  let phys_addr =
    (Pagetable.packed_frame packed lsl t.page_shift) lor (addr land t.page_mask)
  in
  let l1 = Array.unsafe_get t.l1s proc in
  let l1_line = phys_addr lsr t.l1_shift in
  let l1_hit = Cache.touch l1 ~line:l1_line in
  if l1_hit && not write then begin
    (* common case: L1 read hit — TLB, one cache probe, nothing else *)
    let lat = tlb_c + t.l1_hit_cycles in
    c.Counters.mem_stall_cycles <- c.Counters.mem_stall_cycles + lat;
    (match t.probe with
    | None -> ()
    | Some probe ->
        emit t probe ~proc ~addr ~write ~now ~tlb:tlb_c ~hit:t.l1_hit_cycles
          ~local:0 ~remote:0 ~contention:0 ~coherence:0 ~tlb_flushed);
    lat
  end
  else
    let l2 = t.l2s.(proc) in
    let l2_line = phys_addr lsr t.l2_shift in
    if l1_hit && Directory.exclusive_owner t.dir ~line:l2_line = proc then begin
      (* L1 write hit on an exclusively-held line: one directory word *)
      Cache.set_dirty l1 ~line:l1_line;
      Cache.set_dirty l2 ~line:l2_line;
      let lat = tlb_c + t.l1_hit_cycles in
      c.Counters.mem_stall_cycles <- c.Counters.mem_stall_cycles + lat;
      (match t.probe with
      | None -> ()
      | Some probe ->
          emit t probe ~proc ~addr ~write ~now ~tlb:tlb_c
            ~hit:t.l1_hit_cycles ~local:0 ~remote:0 ~contention:0
            ~coherence:0 ~tlb_flushed);
      lat
    end
    else
      access_slow t ~proc ~addr ~write ~now ~c ~tlb_c ~tlb_flushed ~home ~l1
        ~l2 ~l1_line ~l2_line ~l1_hit

(* everything below the L1 fast path: L2 hits, upgrades, directory
   transactions, fills. Charges and counters are identical to the
   pre-fast-path implementation. *)
and access_slow t ~proc ~addr ~write ~now ~c ~tlb_c ~tlb_flushed ~home ~l1
    ~l2 ~l1_line ~l2_line ~l1_hit =
  let my_node = Config.node_of_proc t.cfg proc in
  let lat = ref tlb_c in
  (* cause-tagged slices of [lat], reported to the probe (profiler). Every
     cycle added to [lat] below is also added to exactly one slice. *)
  let tlb_c = ref tlb_c
  and hit_c = ref 0
  and fill_c = ref 0
  and cont_c = ref 0
  and coh_c = ref 0 in
  let exclusive_mine () = Directory.exclusive_owner t.dir ~line:l2_line = proc in
  begin
    if not l1_hit then c.Counters.l1_misses <- c.Counters.l1_misses + 1;
    let l2_hit = Cache.touch l2 ~line:l2_line in
    if l2_hit && ((not write) || exclusive_mine ()) then begin
      (* L2 hit (or write to an exclusively-held line) *)
      hit_c := !hit_c + t.cfg.Config.l2.Config.hit_cycles;
      lat := !lat + t.cfg.Config.l2.Config.hit_cycles;
      if write then Cache.set_dirty l2 ~line:l2_line
    end
    else if l2_hit (* && write && not exclusive: upgrade *) then begin
      c.Counters.upgrades <- c.Counters.upgrades + 1;
      let others = Directory.sharers_except t.dir ~line:l2_line ~proc in
      List.iter
        (fun q ->
          ignore (smash_line t ~victim:q ~phys_line:l2_line);
          t.ctrs.(q).Counters.invals_received <-
            t.ctrs.(q).Counters.invals_received + 1)
        others;
      c.Counters.invals_sent <- c.Counters.invals_sent + List.length others;
      let route =
        Topology.route_cycles t.topo ~from_node:my_node ~to_node:home
        + Fault.link_extra t.fault ~a:my_node ~b:home
      in
      let upgrade_coh =
        route
        + Fault.dir_extra t.fault ~home
        + (t.cfg.Config.inval_cycles_per_sharer * List.length others)
      in
      hit_c := !hit_c + t.cfg.Config.l2.Config.hit_cycles;
      coh_c := !coh_c + upgrade_coh;
      lat := !lat + t.cfg.Config.l2.Config.hit_cycles + upgrade_coh;
      Directory.set_exclusive t.dir ~line:l2_line ~owner:proc;
      Cache.set_dirty l2 ~line:l2_line
    end
    else begin
      (* L2 miss: directory transaction at the page's home node *)
      c.Counters.l2_misses <- c.Counters.l2_misses + 1;
      let arrival = now + !lat in
      let base_lat =
        Topology.mem_latency t.topo ~proc_node:my_node ~home_node:home
        + Fault.link_extra t.fault ~a:my_node ~b:home
        + Fault.dir_extra t.fault ~home
      in
      (* who supplies the data? *)
      let dirty_owner =
        let q = Directory.exclusive_owner t.dir ~line:l2_line in
        if q >= 0 && q <> proc && Cache.is_dirty t.l2s.(q) ~line:l2_line then q
        else -1
      in
      (if dirty_owner >= 0 then begin
        let q = dirty_owner in
        (* cache-to-cache: owner forwards; its copy is written back (read)
           or invalidated (write) *)
        c.Counters.dirty_fetches <- c.Counters.dirty_fetches + 1;
        let q_node = Config.node_of_proc t.cfg q in
        let c2c =
          t.cfg.Config.dirty_transfer_extra_cycles
          + Topology.route_cycles t.topo ~from_node:q_node ~to_node:my_node
          + Fault.link_extra t.fault ~a:q_node ~b:my_node
        in
        fill_c := !fill_c + base_lat;
        coh_c := !coh_c + c2c;
        lat := !lat + base_lat + c2c;
        (* the line being fetched lives on the accessed page, whose home
           node we already hold — no page-table re-derivation *)
        enqueue_writeback t ~node:home ~now:arrival;
        if write then begin
          ignore (smash_line t ~victim:q ~phys_line:l2_line);
          t.ctrs.(q).Counters.invals_received <-
            t.ctrs.(q).Counters.invals_received + 1;
          c.Counters.invals_sent <- c.Counters.invals_sent + 1;
          Directory.set_exclusive t.dir ~line:l2_line ~owner:proc
        end
        else begin
          (* owner's copy becomes clean-shared — in L1 too, or a later L1
             victim eviction would fold its stale dirty bit back into the
             now-shared L2 line *)
          Cache.clear_dirty t.l2s.(q) ~line:l2_line;
          let lo = l2_line lsl t.l2_shift in
          Cache.clear_dirty_range t.l1s.(q) ~lo_addr:lo
            ~hi_addr:(lo + t.cfg.Config.l2.Config.line_bytes - 1);
          Directory.add_sharer t.dir ~line:l2_line ~proc
        end
      end
      else begin
        (* memory supplies the line *)
        let wait = module_service t ~node:home ~arrival in
        c.Counters.contention_cycles <- c.Counters.contention_cycles + wait;
        fill_c := !fill_c + base_lat;
        cont_c := !cont_c + wait;
        lat := !lat + base_lat + wait;
        if write then begin
          let others = Directory.sharers_except t.dir ~line:l2_line ~proc in
          List.iter
            (fun q ->
              ignore (smash_line t ~victim:q ~phys_line:l2_line);
              t.ctrs.(q).Counters.invals_received <-
                t.ctrs.(q).Counters.invals_received + 1)
            others;
          c.Counters.invals_sent <- c.Counters.invals_sent + List.length others;
          let inval = t.cfg.Config.inval_cycles_per_sharer * List.length others in
          coh_c := !coh_c + inval;
          lat := !lat + inval;
          Directory.set_exclusive t.dir ~line:l2_line ~owner:proc
        end
        else if Directory.is_uncached t.dir ~line:l2_line then
          (* MESI E state: sole reader gets a clean-exclusive copy *)
          Directory.set_exclusive t.dir ~line:l2_line ~owner:proc
        else Directory.add_sharer t.dir ~line:l2_line ~proc
      end);
      if home = my_node then c.Counters.local_fills <- c.Counters.local_fills + 1
      else c.Counters.remote_fills <- c.Counters.remote_fills + 1;
      handle_l2_eviction t ~proc ~now (Cache.insert l2 ~line:l2_line ~dirty:write)
    end;
    (* refill L1 (unless it was an L1 hit that merely needed an upgrade) *)
    if not l1_hit then begin
      match Cache.insert l1 ~line:l1_line ~dirty:write with
      | Some { line = evl; dirty = true } ->
          (* L1 victim writeback folds into L2 (on-chip, free); convert the
             L1 line id to the covering L2 line id *)
          Cache.set_dirty l2 ~line:((evl lsl t.l1_shift) lsr t.l2_shift)
      | _ -> ()
    end
    else if write then Cache.set_dirty l1 ~line:l1_line
  end;
  c.Counters.mem_stall_cycles <- c.Counters.mem_stall_cycles + !lat;
  (match t.probe with
  | None -> ()
  | Some probe ->
      let local = home = my_node in
      emit t probe ~proc ~addr ~write ~now ~tlb:!tlb_c ~hit:!hit_c
        ~local:(if local then !fill_c else 0)
        ~remote:(if local then 0 else !fill_c)
        ~contention:!cont_c ~coherence:!coh_c ~tlb_flushed);
  !lat

(* ------------------------------------------------------------------ *)
(* Invariant auditor (on demand; scans are O(cache lines + directory +
   pagetable), never on the access fast path) *)

let audit t =
  let vs = ref [] in
  let add x = vs := x :: !vs in
  let n = t.cfg.Config.nprocs in
  (* coherence: directory vs. the caches it claims to track *)
  Directory.iter t.dir (fun ~line st ->
      match st with
      | Directory.Uncached -> ()
      | Directory.Exclusive q ->
          if not (Cache.probe t.l2s.(q) ~line) then
            add
              (Audit.v "single-writer"
                 "line %d: exclusive owner p%d does not hold the line" line q);
          for p = 0 to n - 1 do
            if p <> q && Cache.probe t.l2s.(p) ~line then
              add
                (Audit.v "single-writer"
                   "line %d: exclusive to p%d but also cached by p%d" line q p)
          done
      | Directory.Shared s ->
          Bitset.iter
            (fun p ->
              if not (Cache.probe t.l2s.(p) ~line) then
                add
                  (Audit.v "sharers-present"
                     "line %d: directory lists sharer p%d but p%d's L2 lost it"
                     line p p))
            s);
  for p = 0 to n - 1 do
    (* every cached L2 line must be tracked by the directory, and a dirty
       copy implies exclusive ownership *)
    Cache.iter_resident t.l2s.(p) (fun ~line ~dirty ->
        (match Directory.state t.dir ~line with
        | Directory.Exclusive q when q = p -> ()
        | Directory.Shared s when Bitset.mem s p ->
            if dirty then
              add
                (Audit.v "dirty-exclusive"
                   "line %d: dirty in p%d's L2 but only shared" line p)
        | st ->
            add
              (Audit.v "directory-tracking"
                 "line %d: cached by p%d but directory says %s" line p
                 (match st with
                 | Directory.Uncached -> "uncached"
                 | Directory.Shared _ -> "shared elsewhere"
                 | Directory.Exclusive q -> Printf.sprintf "exclusive to p%d" q))));
    (* L1 inclusion: every L1 line must lie under a resident L2 line *)
    let l1b = t.cfg.Config.l1.Config.line_bytes
    and l2b = t.cfg.Config.l2.Config.line_bytes in
    Cache.iter_resident t.l1s.(p) (fun ~line ~dirty:_ ->
        let l2_line = line * l1b / l2b in
        if not (Cache.probe t.l2s.(p) ~line:l2_line) then
          add
            (Audit.v "l1-inclusion"
               "p%d: L1 line %d resident without covering L2 line %d" p line
               l2_line));
    (* TLB/pagetable agreement: a cached translation must be placed *)
    Tlb.iter_resident t.tlbs.(p) (fun ~page ->
        match Pagetable.home_opt t.pt ~page with
        | Some _ -> ()
        | None ->
            add
              (Audit.v "tlb-pagetable"
                 "p%d: TLB caches page %d which the pagetable never placed" p
                 page));
    (* translation memo: a non-empty memo must mirror the page table *)
    if t.memo_page.(p) >= 0 then begin
      let page = t.memo_page.(p) and packed = t.memo_packed.(p) in
      match Pagetable.home_opt t.pt ~page with
      | None ->
          add
            (Audit.v "translation-memo"
               "p%d: memo caches page %d which the pagetable never placed" p
               page)
      | Some node ->
          if
            node <> Pagetable.packed_node packed
            || Pagetable.frame t.pt ~page <> Pagetable.packed_frame packed
          then
            add
              (Audit.v "translation-memo"
                 "p%d: memo for page %d is stale (node/frame mismatch)" p page)
    end
  done;
  List.rev_append !vs (Pagetable.audit t.pt)

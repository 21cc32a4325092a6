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
  node_of : int array; (* processor -> node *)
  plan : Fault.t;
  (* the plan's extra cycles, looked up once per node here instead of
     folding its lists on every access *)
  mem_extra : int array; (* node -> extra memory-module service *)
  dir_extra : int array; (* home node -> extra directory cycles *)
  slow_links : bool; (* the plan names a link: ask [Fault.link_extra] *)
  tlb_flush : bool; (* the plan flushes TLBs: ask [Fault.flush_tlb] *)
  faults : Fault.counts; (* the plan's event counts for this machine *)
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
  let nnodes = Config.nnodes cfg in
  {
    cfg;
    topo = Topology.create cfg;
    pt = Pagetable.create cfg policy;
    tlbs = Array.init n (fun _ -> Tlb.create ~entries:cfg.Config.tlb_entries);
    l1s = Array.init n (fun _ -> Cache.create cfg.Config.l1);
    l2s = Array.init n (fun _ -> Cache.create cfg.Config.l2);
    dir = Directory.create ~nprocs:n;
    busy_until = Array.make nnodes 0;
    ctrs = Array.init n (fun _ -> Counters.create ());
    page_shift = log2 cfg.Config.page_bytes;
    page_mask = cfg.Config.page_bytes - 1;
    l1_shift = log2 cfg.Config.l1.Config.line_bytes;
    l2_shift = log2 cfg.Config.l2.Config.line_bytes;
    l1_hit_cycles = cfg.Config.l1.Config.hit_cycles;
    tlb_miss_cycles = cfg.Config.tlb_miss_cycles;
    node_of = Array.init n (Config.node_of_proc cfg);
    plan = fault;
    mem_extra = Array.init nnodes (fun node -> Fault.mem_extra fault ~node);
    dir_extra = Array.init nnodes (fun home -> Fault.dir_extra fault ~home);
    slow_links = fault.Fault.slow_links <> [];
    tlb_flush = fault.Fault.tlb_flush_period > 0;
    faults = Fault.counts fault ~nprocs:n;
    probe = None;
    event =
      { ev_proc = 0; ev_addr = 0; ev_write = false; ev_now = 0; ev_tlb = 0;
        ev_hit = 0; ev_local = 0; ev_remote = 0; ev_contention = 0;
        ev_coherence = 0; ev_tlb_flushed = false };
  }

let config t = t.cfg
let faults t = t.faults
let pagetable t = t.pt
let page_of_addr t addr = addr lsr t.page_shift
let home_of_addr t addr = Pagetable.home_opt t.pt ~page:(page_of_addr t addr)
let set_probe t p = t.probe <- p
let event t = t.event
let counters t ~proc = t.ctrs.(proc)
let total_counters t = Counters.sum t.ctrs

let place_page t ~page ~node = Pagetable.place t.pt ~page ~node

let place_bytes t ~lo ~hi ~node =
  for page = lo lsr t.page_shift to hi lsr t.page_shift do
    Pagetable.place t.pt ~page ~node
  done

let migrate_page t ~page ~node =
  Pagetable.migrate t.pt ~page ~node;
  (* migration allocates a fresh frame: stale translations anywhere would
     hand out the old frame's cache lines, so shoot the page down in every
     processor's TLB *)
  Array.iter (fun tlb -> Tlb.invalidate tlb ~page) t.tlbs

(* Bulk scheduled migration: apply every (page, node) move or none. Each
   move counts one [Migration] of the fault plan; on an injected
   failure the already-applied moves are migrated BACK to their recorded
   homes (a rollback move is never counted — a rollback that could
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
        if Fault.fails t.faults Fault.Migration then begin
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

(* one sharer's side of an invalidation; top-level, so the directory's
   sharer walk allocates no closure *)
let smash_sharer t ~line q =
  ignore (smash_line t ~victim:q ~phys_line:line);
  t.ctrs.(q).Counters.invals_received <- t.ctrs.(q).Counters.invals_received + 1

(* Invalidate every cached copy of [l2_line] but [proc]'s, highest
   processor first, and count the invalidations on both sides; returns how
   many sharers were hit. *)
let invalidate_sharers t (c : Counters.t) ~proc ~l2_line =
  let n = Directory.iter_sharers_except t.dir ~line:l2_line ~proc smash_sharer t in
  c.Counters.invals_sent <- c.Counters.invals_sent + n;
  n

(* extra cycles of a congested link between nodes [a] and [b] *)
let link_extra t ~a ~b = if t.slow_links then Fault.link_extra t.plan ~a ~b else 0

(* Reserve the memory module of [node] for one line transfer arriving at
   [arrival]; returns the queueing delay. An injected slow-node fault
   stretches the module's service occupancy. *)
let module_service t ~node ~arrival =
  let start = max arrival t.busy_until.(node) in
  let occupancy = t.cfg.Config.mem_occupancy_cycles + t.mem_extra.(node) in
  t.busy_until.(node) <- start + occupancy;
  start - arrival

(* Enqueue a writeback at the line's home module [node]; not on the
   writer's critical path, but it consumes bandwidth. Callers that already
   resolved the line's home thread it through instead of re-deriving it. *)
let enqueue_writeback t ~node ~now = ignore (module_service t ~node ~arrival:now)

(* home node of a physical L2 line, decoded arithmetically from its frame *)
let node_of_phys_line t ~phys_line =
  Pagetable.node_of_frame t.pt ((phys_line lsl t.l2_shift) lsr t.page_shift)

(* [victim] is the packed result of [Cache.insert] on [proc]'s L2 *)
let handle_l2_eviction t ~proc ~now victim =
  if victim <> Cache.no_victim then begin
    let line = Cache.victim_line victim in
    (* inclusion: drop the L1 lines under the evicted L2 line *)
    let lo = line lsl t.l2_shift in
    let hi = lo + t.cfg.Config.l2.Config.line_bytes - 1 in
    ignore (Cache.invalidate_range t.l1s.(proc) ~lo_addr:lo ~hi_addr:hi);
    Directory.drop t.dir ~line ~proc;
    if Cache.victim_dirty victim then begin
      t.ctrs.(proc).Counters.writebacks <- t.ctrs.(proc).Counters.writebacks + 1;
      (* the victim line's home is not the current access's home: decode
         it from the frame id (pure arithmetic, no table lookup) *)
      enqueue_writeback t ~node:(node_of_phys_line t ~phys_line:line) ~now
    end
  end

(* the one exit of [access]: charge the latency, the sum of its six cause
   slices, and hand the slices to the probe in the machine's one event
   record *)
let charge t (c : Counters.t) ~proc ~addr ~write ~now ~tlb ~hit ~local ~remote
    ~contention ~coherence ~tlb_flushed =
  let lat = tlb + hit + local + remote + contention + coherence in
  c.Counters.mem_stall_cycles <- c.Counters.mem_stall_cycles + lat;
  (match t.probe with
  | None -> ()
  | Some probe ->
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
      probe e);
  lat

let rec access t ~proc ~addr ~write ~now =
  (* [proc] indexes every per-processor array and is engine-supplied and
     in range; the hot path elides the redundant bounds checks *)
  let c = Array.unsafe_get t.ctrs proc in
  if write then c.Counters.stores <- c.Counters.stores + 1
  else c.Counters.loads <- c.Counters.loads + 1;
  let page = addr lsr t.page_shift in
  (* injected TLB-shootdown fault: periodically drop this processor's
     translations (costs only the refill misses); translations are counted
     only under a plan that flushes *)
  let tlb_flushed = t.tlb_flush && Fault.flush_tlb t.faults ~proc in
  if tlb_flushed then Tlb.flush t.tlbs.(proc);
  (* 1. address translation: TLB (the only part that costs cycles), then
     the flat page table *)
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
    Pagetable.translate t.pt ~page ~faulting_node:(Array.unsafe_get t.node_of proc)
  in
  let home = Pagetable.packed_node packed in
  let phys_addr =
    (Pagetable.packed_frame packed lsl t.page_shift) lor (addr land t.page_mask)
  in
  let l1 = Array.unsafe_get t.l1s proc in
  let l1_line = phys_addr lsr t.l1_shift in
  let l1_hit = Cache.touch l1 ~line:l1_line in
  let l2_line = phys_addr lsr t.l2_shift in
  if
    l1_hit
    && ((not write) || Directory.exclusive_owner t.dir ~line:l2_line = proc)
  then begin
    (* the common cases: an L1 read hit (TLB, one cache probe, nothing
       else), or an L1 write hit on an exclusively-held line (plus one
       directory word) *)
    if write then begin
      Cache.set_dirty l1 ~line:l1_line;
      Cache.set_dirty (Array.unsafe_get t.l2s proc) ~line:l2_line
    end;
    charge t c ~proc ~addr ~write ~now ~tlb:tlb_c ~hit:t.l1_hit_cycles
      ~local:0 ~remote:0 ~contention:0 ~coherence:0 ~tlb_flushed
  end
  else
    access_slow t ~proc ~addr ~write ~now ~c ~tlb_c ~tlb_flushed ~home ~l1
      ~l2:t.l2s.(proc) ~l1_line ~l2_line ~l1_hit

(* everything below the L1 fast path: L2 hits, upgrades, directory
   transactions, fills. Charges and counters are identical to the
   pre-fast-path implementation. *)
and access_slow t ~proc ~addr ~write ~now ~c ~tlb_c ~tlb_flushed ~home ~l1
    ~l2 ~l1_line ~l2_line ~l1_hit =
  let my_node = Array.unsafe_get t.node_of proc in
  (* cause-tagged slices of the latency, reported to the probe (profiler):
     they partition it, so the latency is their sum *)
  let hit_c = ref 0
  and fill_c = ref 0
  and cont_c = ref 0
  and coh_c = ref 0 in
  begin
    if not l1_hit then c.Counters.l1_misses <- c.Counters.l1_misses + 1;
    let l2_hit = Cache.touch l2 ~line:l2_line in
    if
      l2_hit
      && ((not write) || Directory.exclusive_owner t.dir ~line:l2_line = proc)
    then begin
      (* L2 hit (or write to an exclusively-held line) *)
      hit_c := !hit_c + t.cfg.Config.l2.Config.hit_cycles;
      if write then Cache.set_dirty l2 ~line:l2_line
    end
    else if l2_hit (* && write && not exclusive: upgrade *) then begin
      c.Counters.upgrades <- c.Counters.upgrades + 1;
      let sharers = invalidate_sharers t c ~proc ~l2_line in
      let route =
        Topology.route_cycles t.topo ~from_node:my_node ~to_node:home
        + link_extra t ~a:my_node ~b:home
      in
      let upgrade_coh =
        route
        + t.dir_extra.(home)
        + (t.cfg.Config.inval_cycles_per_sharer * sharers)
      in
      hit_c := !hit_c + t.cfg.Config.l2.Config.hit_cycles;
      coh_c := !coh_c + upgrade_coh;
      Directory.set_exclusive t.dir ~line:l2_line ~owner:proc;
      Cache.set_dirty l2 ~line:l2_line
    end
    else begin
      (* L2 miss: directory transaction at the page's home node *)
      c.Counters.l2_misses <- c.Counters.l2_misses + 1;
      (* the request leaves once the latency so far has elapsed *)
      let arrival = now + tlb_c + !hit_c + !fill_c + !cont_c + !coh_c in
      let base_lat =
        Topology.mem_latency t.topo ~proc_node:my_node ~home_node:home
        + link_extra t ~a:my_node ~b:home
        + t.dir_extra.(home)
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
        let q_node = t.node_of.(q) in
        let c2c =
          t.cfg.Config.dirty_transfer_extra_cycles
          + Topology.route_cycles t.topo ~from_node:q_node ~to_node:my_node
          + link_extra t ~a:q_node ~b:my_node
        in
        fill_c := !fill_c + base_lat;
        coh_c := !coh_c + c2c;
        (* the line being fetched lives on the accessed page, whose home
           node we already hold — no page-table re-derivation *)
        enqueue_writeback t ~node:home ~now:arrival;
        if write then begin
          (* the exclusive owner [q] is the line's one other sharer *)
          ignore (invalidate_sharers t c ~proc ~l2_line);
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
        if write then begin
          let sharers = invalidate_sharers t c ~proc ~l2_line in
          coh_c := !coh_c + (t.cfg.Config.inval_cycles_per_sharer * sharers);
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
      let victim = Cache.insert l1 ~line:l1_line ~dirty:write in
      if victim <> Cache.no_victim && Cache.victim_dirty victim then
        (* L1 victim writeback folds into L2 (on-chip, free); convert the
           L1 line id to the covering L2 line id *)
        Cache.set_dirty l2
          ~line:((Cache.victim_line victim lsl t.l1_shift) lsr t.l2_shift)
    end
    else if write then Cache.set_dirty l1 ~line:l1_line
  end;
  let local = home = my_node in
  charge t c ~proc ~addr ~write ~now ~tlb:tlb_c ~hit:!hit_c
    ~local:(if local then !fill_c else 0)
    ~remote:(if local then 0 else !fill_c)
    ~contention:!cont_c ~coherence:!coh_c ~tlb_flushed

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
                 page))
  done;
  List.rev_append !vs (Pagetable.audit t.pt)

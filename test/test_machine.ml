(* Tests for the Origin-2000 CC-NUMA simulator: caches, TLB, page placement,
   directory coherence, memory contention. *)

open Ddsm_machine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A small machine that is easy to reason about: 4 procs on 2 nodes,
   256-byte pages, tiny caches (L1: 4 lines of 32 B; L2: 4 lines of 128 B),
   4-entry TLB. *)
let tiny ?(nprocs = 4) ?(node_mem_bytes = 16 * 1024) () : Config.t =
  {
    nprocs;
    procs_per_node = 2;
    page_bytes = 256;
    l1 = { size_bytes = 128; line_bytes = 32; assoc = 2; hit_cycles = 1 };
    l2 = { size_bytes = 512; line_bytes = 128; assoc = 2; hit_cycles = 10 };
    tlb_entries = 4;
    tlb_miss_cycles = 57;
    local_mem_cycles = 70;
    remote_base_cycles = 110;
    remote_per_hop_cycles = 12;
    mem_occupancy_cycles = 24;
    dirty_transfer_extra_cycles = 40;
    inval_cycles_per_sharer = 16;
    node_mem_bytes;
  }

(* ------------------------------------------------------------------ *)
(* Config *)

let test_config_presets () =
  List.iter
    (fun cfg ->
      match Config.validate cfg with
      | Ok () -> ()
      | Error e -> Alcotest.failf "invalid preset: %s" e)
    [ Config.origin2000 ~nprocs:128; Config.scaled ~nprocs:16 (); tiny () ];
  let o = Config.origin2000 ~nprocs:128 in
  check_int "64 nodes" 64 (Config.nnodes o);
  check_int "node of proc 5" 2 (Config.node_of_proc o 5);
  check_int "16KB pages" 16384 o.Config.page_bytes

let test_config_validate_rejects () =
  let bad = { (tiny ()) with page_bytes = 100 } in
  check_bool "non-pow2 page rejected" true (Result.is_error (Config.validate bad));
  let bad = { (tiny ()) with l2 = { (tiny ()).l2 with line_bytes = 1024 } } in
  check_bool "L2 line > page rejected" true (Result.is_error (Config.validate bad))

(* ------------------------------------------------------------------ *)
(* Bitset *)

let bitset_elements s =
  let l = ref [] in
  Bitset.iter (fun i -> l := i :: !l) s;
  List.rev !l

let test_bitset_basic () =
  let s = Bitset.create 128 in
  Alcotest.(check (list int)) "empty" [] (bitset_elements s);
  Bitset.add s 0;
  Bitset.add s 127;
  Bitset.add s 63;
  Bitset.add s 63;
  check_bool "mem 127" true (Bitset.mem s 127);
  check_bool "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check (list int)) "iter order" [ 0; 63; 127 ] (bitset_elements s);
  check_bool "outside the universe" true
    (match Bitset.add s 128 with
    | () -> false
    | exception Invalid_argument _ -> true)

let prop_bitset_model =
  QCheck.Test.make ~count:300 ~name:"bitset matches a set model"
    QCheck.(list (int_range 0 99))
    (fun adds ->
      let s = Bitset.create 100 in
      List.iter (Bitset.add s) adds;
      bitset_elements s = List.sort_uniq compare adds
      && List.for_all
           (fun i -> Bitset.mem s i = List.mem i adds)
           (List.init 100 Fun.id))

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_topology () =
  let topo = Topology.create (Config.origin2000 ~nprocs:128) in
  check_int "64 nodes" 64 (Topology.nnodes topo);
  check_int "same node" 0 (Topology.hops topo 5 5);
  check_int "hamming 1" 1 (Topology.hops topo 0 1);
  check_int "hamming far" 6 (Topology.hops topo 0 63);
  check_bool "symmetric" true (Topology.hops topo 3 12 = Topology.hops topo 12 3);
  check_int "local latency" 70 (Topology.mem_latency topo ~proc_node:2 ~home_node:2);
  check_int "1-hop latency" 110 (Topology.mem_latency topo ~proc_node:0 ~home_node:1);
  let far = Topology.mem_latency topo ~proc_node:0 ~home_node:63 in
  check_bool "far remote within paper range" true (far >= 110 && far <= 200);
  check_int "route to self is free" 0 (Topology.route_cycles topo ~from_node:4 ~to_node:4)

(* ------------------------------------------------------------------ *)
(* TLB *)

let test_tlb_lru () =
  let tlb = Tlb.create ~entries:2 in
  check_bool "cold miss" false (Tlb.access tlb ~page:1);
  check_bool "hit" true (Tlb.access tlb ~page:1);
  check_bool "second page miss" false (Tlb.access tlb ~page:2);
  check_bool "both resident" true (Tlb.access tlb ~page:1);
  (* page 2 is now LRU; inserting page 3 evicts it *)
  check_bool "third page evicts LRU" false (Tlb.access tlb ~page:3);
  check_bool "page 1 survived" true (Tlb.access tlb ~page:1);
  check_bool "page 2 was evicted" false (Tlb.access tlb ~page:2);
  check_int "resident bounded" 2 (Tlb.resident tlb)

(* ------------------------------------------------------------------ *)
(* Cache *)

let l2cfg : Config.cache_cfg =
  { size_bytes = 512; line_bytes = 128; assoc = 2; hit_cycles = 10 }
(* 4 lines, 2 sets: even lines -> set 0, odd lines -> set 1 *)

let test_cache_hit_miss () =
  let c = Cache.create l2cfg in
  check_bool "cold" false (Cache.touch c ~line:0);
  check_int "a free way evicts nothing" Cache.no_victim
    (Cache.insert c ~line:0 ~dirty:false);
  check_bool "insert then hit" true (Cache.touch c ~line:0);
  check_int "resident" 1 (Cache.resident_lines c)

let test_cache_lru_eviction () =
  let c = Cache.create l2cfg in
  (* set 0 holds even lines; fill with 0 and 2, touch 0, insert 4: evicts 2 *)
  ignore (Cache.insert c ~line:0 ~dirty:false);
  ignore (Cache.insert c ~line:2 ~dirty:true);
  ignore (Cache.touch c ~line:0);
  let v = Cache.insert c ~line:4 ~dirty:false in
  check_int "victim packed as (line lsl 1) lor dirty" ((2 lsl 1) lor 1) v;
  check_int "LRU victim" 2 (Cache.victim_line v);
  check_bool "victim was dirty" true (Cache.victim_dirty v);
  check_bool "line 0 survived" true (Cache.probe c ~line:0);
  check_bool "line 2 gone" false (Cache.probe c ~line:2);
  (* line 0 is now LRU, and clean *)
  let v = Cache.insert c ~line:6 ~dirty:true in
  check_int "clean LRU victim" 0 (Cache.victim_line v);
  check_bool "victim was clean" false (Cache.victim_dirty v);
  check_int "resident stays at capacity" 2 (Cache.resident_lines c)

let test_cache_sets_independent () =
  let c = Cache.create l2cfg in
  ignore (Cache.insert c ~line:0 ~dirty:false);
  ignore (Cache.insert c ~line:1 ~dirty:false);
  ignore (Cache.insert c ~line:2 ~dirty:false);
  ignore (Cache.insert c ~line:3 ~dirty:false);
  check_int "4 lines resident across 2 sets" 4 (Cache.resident_lines c)

let test_cache_dirty_invalidate () =
  let c = Cache.create l2cfg in
  ignore (Cache.insert c ~line:5 ~dirty:false);
  Cache.set_dirty c ~line:5;
  check_bool "dirty" true (Cache.is_dirty c ~line:5);
  Cache.clear_dirty c ~line:5;
  check_bool "cleaned" false (Cache.is_dirty c ~line:5);
  Cache.set_dirty c ~line:5;
  check_bool "invalidate reports dirty" true (Cache.invalidate c ~line:5);
  check_bool "gone" false (Cache.probe c ~line:5)

let test_cache_invalidate_range () =
  let cfg : Config.cache_cfg =
    { size_bytes = 256; line_bytes = 32; assoc = 2; hit_cycles = 1 }
  in
  let c = Cache.create cfg in
  (* lines 4..7 cover bytes 128..255 (one 128-byte L2 line) *)
  for l = 4 to 7 do
    ignore (Cache.insert c ~line:l ~dirty:(l mod 2 = 0))
  done;
  let dropped_dirty = Cache.invalidate_range c ~lo_addr:128 ~hi_addr:255 in
  check_int "two dirty lines dropped" 2 dropped_dirty;
  check_int "all gone" 0 (Cache.resident_lines c)

(* ------------------------------------------------------------------ *)
(* Pagetable *)

let test_pagetable_first_touch () =
  let cfg = tiny () in
  let pt = Pagetable.create cfg Pagetable.First_touch in
  check_int "faulting node gets the page" 1 (Pagetable.home pt ~page:7 ~faulting_node:1);
  check_int "sticky thereafter" 1 (Pagetable.home pt ~page:7 ~faulting_node:0);
  check_int "one page placed" 1 (Pagetable.placed_pages pt)

let test_pagetable_round_robin () =
  let cfg = tiny () in
  let pt = Pagetable.create cfg Pagetable.Round_robin in
  let homes = List.init 6 (fun p -> Pagetable.home pt ~page:p ~faulting_node:0) in
  Alcotest.(check (list int)) "round robin over 2 nodes" [ 0; 1; 0; 1; 0; 1 ] homes

let test_pagetable_explicit_place () =
  let cfg = tiny () in
  let pt = Pagetable.create cfg Pagetable.First_touch in
  Pagetable.place pt ~page:3 ~node:1;
  check_int "explicit placement overrides first touch" 1
    (Pagetable.home pt ~page:3 ~faulting_node:0);
  (* first placement wins *)
  Pagetable.place pt ~page:3 ~node:0;
  check_int "re-place is a no-op" 1 (Pagetable.home pt ~page:3 ~faulting_node:0)

let test_pagetable_spill () =
  (* node memory of 2 pages: placing 3 pages on node 0 spills one to node 1 *)
  let cfg = tiny ~node_mem_bytes:512 () in
  let pt = Pagetable.create cfg Pagetable.First_touch in
  for p = 0 to 2 do
    ignore (Pagetable.home pt ~page:p ~faulting_node:0)
  done;
  check_int "node 0 full" 2 (Pagetable.pages_on_node pt ~node:0);
  check_int "spill to node 1" 1 (Pagetable.pages_on_node pt ~node:1)

let test_pagetable_migrate () =
  let cfg = tiny () in
  let pt = Pagetable.create cfg Pagetable.First_touch in
  ignore (Pagetable.home pt ~page:9 ~faulting_node:0);
  let f0 = Pagetable.frame pt ~page:9 in
  Pagetable.migrate pt ~page:9 ~node:1;
  check_int "new home" 1 (Pagetable.home pt ~page:9 ~faulting_node:0);
  check_bool "fresh frame" true (Pagetable.frame pt ~page:9 <> f0)

let test_pagetable_unique_frames () =
  let cfg = tiny () in
  let pt = Pagetable.create cfg Pagetable.Round_robin in
  let frames = Hashtbl.create 64 in
  for p = 0 to 40 do
    ignore (Pagetable.home pt ~page:p ~faulting_node:0);
    let f = Pagetable.frame pt ~page:p in
    check_bool "frame unique" false (Hashtbl.mem frames f);
    Hashtbl.replace frames f ()
  done

(* ------------------------------------------------------------------ *)
(* Directory *)

(* the sharers of [line] but [proc], in visiting order; the count the
   iterator returns must match *)
let sharers_except d ~line ~proc =
  let acc = ref [] in
  let n =
    Directory.iter_sharers_except d ~line ~proc (fun acc ~line:_ q -> acc := q :: !acc)
      acc
  in
  check_int "visited count" (List.length !acc) n;
  List.rev !acc

let test_directory_transitions () =
  let d = Directory.create ~nprocs:4 in
  check_bool "uncached" true (Directory.state d ~line:1 = Directory.Uncached);
  Directory.add_sharer d ~line:1 ~proc:0;
  (match Directory.state d ~line:1 with
  | Directory.Shared s ->
      Alcotest.(check (list int)) "one sharer" [ 0 ] (bitset_elements s)
  | _ -> Alcotest.fail "expected Shared");
  Directory.add_sharer d ~line:1 ~proc:2;
  Alcotest.(check (list int)) "sharers except 2" [ 0 ]
    (sharers_except d ~line:1 ~proc:2);
  Directory.add_sharer d ~line:1 ~proc:3;
  Alcotest.(check (list int)) "highest first" [ 3; 2; 0 ]
    (sharers_except d ~line:1 ~proc:1);
  Directory.set_exclusive d ~line:1 ~owner:3;
  check_bool "exclusive" true (Directory.state d ~line:1 = Directory.Exclusive 3);
  Alcotest.(check (list int)) "the owner alone" [ 3 ]
    (sharers_except d ~line:1 ~proc:0);
  Alcotest.(check (list int)) "the owner excepted" []
    (sharers_except d ~line:1 ~proc:3);
  Directory.add_sharer d ~line:1 ~proc:1;
  Alcotest.(check (list int)) "exclusive then sharer" [ 3 ]
    (sharers_except d ~line:1 ~proc:1);
  Directory.drop d ~line:1 ~proc:3;
  Directory.drop d ~line:1 ~proc:1;
  check_bool "back to uncached" true (Directory.state d ~line:1 = Directory.Uncached)

(* ------------------------------------------------------------------ *)
(* Memsys: end-to-end scenarios *)

let mk ?(policy = Pagetable.First_touch) ?(cfg = tiny ()) () =
  Memsys.create cfg ~policy ()

let test_memsys_cold_then_hot () =
  let m = mk () in
  let cold = Memsys.access m ~proc:0 ~addr:0 ~write:false ~now:0 in
  check_bool "cold read costs at least local memory" true (cold >= 70);
  let hot = Memsys.access m ~proc:0 ~addr:8 ~write:false ~now:cold in
  check_int "adjacent word is an L1 hit" 1 hot;
  let c = Memsys.counters m ~proc:0 in
  check_int "one L2 miss" 1 c.Counters.l2_misses;
  check_int "local fill" 1 c.Counters.local_fills;
  check_int "one TLB miss" 1 c.Counters.tlb_misses

let test_memsys_remote_costs_more () =
  let m = mk () in
  (* proc 0 (node 0) touches page 0 first: homes it on node 0 *)
  ignore (Memsys.access m ~proc:0 ~addr:0 ~write:false ~now:0);
  (* proc 2 (node 1) misses on the second line of page 0, homed on node 0 *)
  let remote = Memsys.access m ~proc:2 ~addr:128 ~write:false ~now:0 in
  ignore (Memsys.access m ~proc:0 ~addr:0 ~write:false ~now:0);
  (* compare: proc 0 reading another cold local page *)
  let local = Memsys.access m ~proc:0 ~addr:1024 ~write:false ~now:0 in
  check_bool
    (Printf.sprintf "remote (%d) > local (%d)" remote local)
    true (remote > local);
  let c2 = Memsys.counters m ~proc:2 in
  check_int "remote fill counted" 1 c2.Counters.remote_fills

let test_memsys_write_invalidates_readers () =
  let m = mk () in
  ignore (Memsys.access m ~proc:0 ~addr:0 ~write:false ~now:0);
  ignore (Memsys.access m ~proc:1 ~addr:0 ~write:false ~now:0);
  (* both share the line now; proc 1 writes: proc 0 must be invalidated *)
  ignore (Memsys.access m ~proc:1 ~addr:0 ~write:true ~now:100);
  let c0 = Memsys.counters m ~proc:0 and c1 = Memsys.counters m ~proc:1 in
  check_int "proc0 invalidated" 1 c0.Counters.invals_received;
  check_bool "proc1 sent an inval" true (c1.Counters.invals_sent >= 1);
  (* proc 0 re-reads: must miss again (coherence) *)
  let before = c0.Counters.l2_misses in
  ignore (Memsys.access m ~proc:0 ~addr:0 ~write:false ~now:200);
  check_int "re-read is a coherence miss" (before + 1) c0.Counters.l2_misses

let test_memsys_dirty_fetch () =
  let m = mk () in
  ignore (Memsys.access m ~proc:0 ~addr:0 ~write:true ~now:0);
  (* proc 1 reads the dirty line: cache-to-cache transfer *)
  ignore (Memsys.access m ~proc:1 ~addr:0 ~write:false ~now:50);
  let c1 = Memsys.counters m ~proc:1 in
  check_int "dirty fetch" 1 c1.Counters.dirty_fetches;
  (* both can now read cheaply *)
  check_int "proc1 L1 hit" 1 (Memsys.access m ~proc:1 ~addr:8 ~write:false ~now:500);
  check_int "proc0 keeps its copy" 1
    (Memsys.access m ~proc:0 ~addr:8 ~write:false ~now:500)

let test_memsys_false_sharing_ping_pong () =
  let m = mk () in
  (* words 0 and 64 share the 128-byte L2 line: alternating writers ping-pong *)
  for i = 0 to 9 do
    ignore (Memsys.access m ~proc:0 ~addr:0 ~write:true ~now:(1000 * i));
    ignore (Memsys.access m ~proc:1 ~addr:64 ~write:true ~now:(1000 * i) )
  done;
  let c0 = Memsys.counters m ~proc:0 and c1 = Memsys.counters m ~proc:1 in
  check_bool "both suffer invalidations" true
    (c0.Counters.invals_received >= 8 && c1.Counters.invals_received >= 8);
  check_bool "repeated coherence misses" true
    (c0.Counters.l2_misses + c0.Counters.upgrades >= 9)

let test_memsys_contention_hot_node () =
  (* All data on node 0; procs on other nodes hammer it. Total contention
     must exceed the same traffic spread over both nodes. *)
  let cfg = tiny ~nprocs:4 () in
  let run policy_placement =
    let m = mk ~cfg () in
    (match policy_placement with
    | `Hot -> Memsys.place_bytes m ~lo:0 ~hi:8191 ~node:0
    | `Spread ->
        Memsys.place_bytes m ~lo:0 ~hi:4095 ~node:0;
        Memsys.place_bytes m ~lo:4096 ~hi:8191 ~node:1);
    (* each proc streams through a distinct 2KB region at the same time *)
    for w = 0 to 255 do
      for p = 0 to 3 do
        ignore (Memsys.access m ~proc:p ~addr:((p * 2048) + (w * 8)) ~write:false ~now:(w * 30))
      done
    done;
    (Memsys.total_counters m).Counters.contention_cycles
  in
  let hot = run `Hot and spread = run `Spread in
  check_bool
    (Printf.sprintf "hot node contends more (%d > %d)" hot spread)
    true (hot > spread)

let test_memsys_l2_eviction_writeback () =
  let m = mk () in
  (* tiny L2 holds 4 lines; write 6 distinct lines mapping over the sets *)
  for l = 0 to 5 do
    ignore (Memsys.access m ~proc:0 ~addr:(l * 128) ~write:true ~now:(l * 100))
  done;
  let c = Memsys.counters m ~proc:0 in
  check_bool "writebacks happened" true (c.Counters.writebacks >= 1);
  (* evicted line must be re-fetchable correctly *)
  ignore (Memsys.access m ~proc:0 ~addr:0 ~write:false ~now:10_000);
  check_int "refetch misses" 7 c.Counters.l2_misses

let test_memsys_counter_consistency () =
  let m = mk ~policy:Pagetable.Round_robin () in
  for i = 0 to 199 do
    ignore (Memsys.access m ~proc:(i mod 4) ~addr:(i * 56) ~write:(i mod 3 = 0) ~now:(i * 10))
  done;
  let t = Memsys.total_counters m in
  check_int "fills partition L2 misses (no dirty owners here)"
    t.Counters.l2_misses
    (t.Counters.local_fills + t.Counters.remote_fills);
  check_int "invals conserve" t.Counters.invals_sent t.Counters.invals_received;
  check_int "every access counted" 200 (Counters.accesses t)

let test_memsys_migrate_changes_home () =
  let m = mk () in
  ignore (Memsys.access m ~proc:0 ~addr:0 ~write:false ~now:0);
  Alcotest.(check (option int)) "homed on node 0" (Some 0) (Memsys.home_of_addr m 0);
  check_int "first touch misses the TLB" 1
    (Memsys.counters m ~proc:0).Counters.tlb_misses;
  (match Memsys.migrate_pages m [ (0, 1) ] with
  | Ok moved -> check_int "one page moved" 1 moved
  | Error i -> Alcotest.failf "move %d failed without a fault plan" i);
  Alcotest.(check (option int)) "re-homed" (Some 1) (Memsys.home_of_addr m 0);
  (* the migration shot page 0 down, so the next access refills the TLB *)
  ignore (Memsys.access m ~proc:0 ~addr:0 ~write:false ~now:100);
  check_int "stale translation dropped" 2
    (Memsys.counters m ~proc:0).Counters.tlb_misses;
  check_int "audit clean" 0 (List.length (Memsys.audit m))

let test_memsys_tlb_pressure () =
  (* touching more pages than TLB entries causes recurring TLB misses *)
  let m = mk () in
  for round = 0 to 4 do
    for p = 0 to 7 do
      ignore
        (Memsys.access m ~proc:0 ~addr:(p * 256) ~write:false ~now:(round * 1000))
    done
  done;
  let c = Memsys.counters m ~proc:0 in
  (* 8 pages over a 4-entry TLB: every access in each round misses *)
  check_bool "recurring TLB misses" true (c.Counters.tlb_misses >= 16)

(* reference model: fully explicit set-associative LRU cache *)
let prop_cache_matches_model =
  QCheck.Test.make ~count:200 ~name:"cache matches a naive LRU model"
    QCheck.(list (pair bool (int_range 0 40)))
    (fun ops ->
      let cfg : Config.cache_cfg =
        { size_bytes = 512; line_bytes = 64; assoc = 2; hit_cycles = 1 }
      in
      let nsets = 512 / 64 / 2 in
      let c = Cache.create cfg in
      (* model: per set, list of (line, dirty), most recent first *)
      let model = Array.make nsets [] in
      List.for_all
        (fun (write, line) ->
          let set = line mod nsets in
          let hit_model = List.mem_assoc line model.(set) in
          let hit = Cache.touch c ~line in
          (if hit_model then begin
             let dirty = write || List.assoc line model.(set) in
             model.(set) <-
               (line, dirty) :: List.remove_assoc line model.(set)
           end
           else begin
             (if not hit then ignore (Cache.insert c ~line ~dirty:write));
             let kept =
               if List.length model.(set) >= 2 then
                 [ List.hd model.(set) ]
               else model.(set)
             in
             model.(set) <- (line, write) :: kept
           end);
          if write && hit then Cache.set_dirty c ~line;
          hit = hit_model
          && List.for_all
               (fun (l, d) -> Cache.probe c ~line:l && Cache.is_dirty c ~line:l = d)
               model.(set))
        ops)

let prop_pagetable_frames_unique_and_colored =
  QCheck.Test.make ~count:100 ~name:"pagetable: frames unique, colors preserved"
    QCheck.(list (int_range 0 300))
    (fun pages ->
      let cfg = tiny ~node_mem_bytes:(16 * 1024) () in
      let pt = Pagetable.create cfg Pagetable.Round_robin in
      let colors =
        max 1 (cfg.Config.l2.Config.size_bytes / cfg.Config.l2.Config.assoc / cfg.Config.page_bytes)
      in
      let frames = Hashtbl.create 64 in
      let placed = Hashtbl.create 64 in
      List.for_all
        (fun p ->
          ignore (Pagetable.home pt ~page:p ~faulting_node:0);
          let f = Pagetable.frame pt ~page:p in
          let fresh = not (Hashtbl.mem frames f) in
          let seen_before = Hashtbl.mem placed p in
          Hashtbl.replace frames f ();
          Hashtbl.replace placed p ();
          (seen_before || fresh) && f mod colors = p mod colors)
        pages)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let () =
  Alcotest.run "machine"
    [
      ( "config",
        [
          Alcotest.test_case "presets validate" `Quick test_config_presets;
          Alcotest.test_case "validate rejects bad configs" `Quick test_config_validate_rejects;
        ] );
      ( "bitset",
        [ Alcotest.test_case "basic ops" `Quick test_bitset_basic ] );
      qsuite "bitset.props" [ prop_bitset_model ];
      qsuite "cache.props" [ prop_cache_matches_model ];
      qsuite "pagetable.props" [ prop_pagetable_frames_unique_and_colored ];
      ("topology", [ Alcotest.test_case "hypercube distances & latency" `Quick test_topology ]);
      ("tlb", [ Alcotest.test_case "LRU replacement" `Quick test_tlb_lru ]);
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "sets independent" `Quick test_cache_sets_independent;
          Alcotest.test_case "dirty & invalidate" `Quick test_cache_dirty_invalidate;
          Alcotest.test_case "invalidate_range" `Quick test_cache_invalidate_range;
        ] );
      ( "pagetable",
        [
          Alcotest.test_case "first touch" `Quick test_pagetable_first_touch;
          Alcotest.test_case "round robin" `Quick test_pagetable_round_robin;
          Alcotest.test_case "explicit placement" `Quick test_pagetable_explicit_place;
          Alcotest.test_case "spill when node full" `Quick test_pagetable_spill;
          Alcotest.test_case "migrate" `Quick test_pagetable_migrate;
          Alcotest.test_case "frames unique" `Quick test_pagetable_unique_frames;
        ] );
      ( "directory",
        [ Alcotest.test_case "state transitions" `Quick test_directory_transitions ] );
      ( "memsys",
        [
          Alcotest.test_case "cold miss then L1 hit" `Quick test_memsys_cold_then_hot;
          Alcotest.test_case "remote costs more than local" `Quick test_memsys_remote_costs_more;
          Alcotest.test_case "write invalidates readers" `Quick test_memsys_write_invalidates_readers;
          Alcotest.test_case "dirty cache-to-cache fetch" `Quick test_memsys_dirty_fetch;
          Alcotest.test_case "false sharing ping-pong" `Quick test_memsys_false_sharing_ping_pong;
          Alcotest.test_case "hot-node contention" `Quick test_memsys_contention_hot_node;
          Alcotest.test_case "eviction writeback" `Quick test_memsys_l2_eviction_writeback;
          Alcotest.test_case "counter consistency" `Quick test_memsys_counter_consistency;
          Alcotest.test_case "page migration" `Quick test_memsys_migrate_changes_home;
          Alcotest.test_case "TLB pressure" `Quick test_memsys_tlb_pressure;
        ] );
    ]

(* Tests for the runtime system: heap, per-processor pools, distributed-array
   storage (plain / regular / reshaped), redistribution, argument checks. *)

open Ddsm_dist
open Ddsm_machine
open Ddsm_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let astr_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let tiny ?(nprocs = 4) () : Config.t =
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
    node_mem_bytes = 64 * 1024;
  }

let mk ?(nprocs = 4) ?(policy = Pagetable.First_touch) () =
  Rt.create (tiny ~nprocs ()) ~policy ~heap_words:65536 ()

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_alloc () =
  let h = Heap.create ~words:1000 in
  let a = Heap.alloc h ~words:10 ~align_words:1 in
  check_int "first alloc at 0" 0 a;
  let b = Heap.alloc h ~words:5 ~align_words:32 in
  check_int "aligned" 32 b;
  check_int "used" 37 (Heap.used_words h);
  Heap.set_real h a 3.5;
  Heap.set_int h b 42;
  check_bool "real roundtrip" true (Heap.get_real h a = 3.5);
  check_int "int roundtrip" 42 (Heap.get_int h b);
  check_bool "overflow raises" true
    (try
       ignore (Heap.alloc h ~words:10_000 ~align_words:1);
       false
     with Heap.Out_of_memory _ -> true)

(* ------------------------------------------------------------------ *)
(* Pools *)

let test_pools_local_and_dense () =
  let rt = mk () in
  (* two consecutive allocations by proc 3 pack densely: no page padding *)
  let a = Pools.alloc rt.Rt.pools ~proc:3 ~words:10 in
  let b = Pools.alloc rt.Rt.pools ~proc:3 ~words:10 in
  check_int "dense packing (no padding to page boundary)" (a + 10) b;
  (* the slab's pages live on proc 3's node (node 1) *)
  Alcotest.(check (option int))
    "pool pages on owner's node" (Some 1)
    (Memsys.home_of_addr rt.Rt.mem (Heap.byte_of_word a));
  (* a different proc allocates from a different slab on its own node *)
  let c = Pools.alloc rt.Rt.pools ~proc:0 ~words:10 in
  Alcotest.(check (option int))
    "other proc's pool is on its node" (Some 0)
    (Memsys.home_of_addr rt.Rt.mem (Heap.byte_of_word c))

let test_pools_slab_growth () =
  let rt = mk () in
  (* slab = 4 pages = 128 words on this config; allocate past it *)
  ignore (Pools.alloc rt.Rt.pools ~proc:1 ~words:100);
  check_int "one slab" 1 (Pools.slabs_allocated rt.Rt.pools ~proc:1);
  ignore (Pools.alloc rt.Rt.pools ~proc:1 ~words:100);
  check_int "grew" 2 (Pools.slabs_allocated rt.Rt.pools ~proc:1)

(* ------------------------------------------------------------------ *)
(* Darray: plain storage *)

let test_plain_column_major () =
  let rt = mk () in
  let a =
    Rt.declare_plain rt ~name:"A" ~elem:Darray.Real ~extents:[| 10; 20 |] ()
  in
  let base = Darray.word_addr a [| 1; 1 |] in
  check_int "A(2,1) is next word" (base + 1) (Darray.word_addr a [| 2; 1 |]);
  check_int "A(1,2) is one column away" (base + 10) (Darray.word_addr a [| 1; 2 |]);
  check_int "element count" 200 (Darray.element_count a);
  check_bool "bounds check" true
    (try
       ignore (Darray.word_addr a [| 11; 1 |]);
       false
     with Invalid_argument _ -> true)

let test_plain_lower_bounds () =
  let rt = mk () in
  let a =
    Rt.declare_plain rt ~name:"B" ~elem:Darray.Real ~extents:[| 5 |]
      ~lower:[| 0 |] ()
  in
  let b0 = Darray.word_addr a [| 0 |] in
  check_int "B(4) offset 4" (b0 + 4) (Darray.word_addr a [| 4 |])

(* ------------------------------------------------------------------ *)
(* Darray: regular distribution page placement *)

let test_regular_column_dist_spreads () =
  (* ( *, block ) over big columns: each processor's pages on its own node *)
  let rt = mk () in
  let a =
    Rt.declare_regular rt ~name:"A" ~elem:Darray.Real ~extents:[| 64; 8 |]
      ~kinds:[| Kind.Star; Kind.Block |] ()
  in
  (* 64x8 words = 512 words = 16 pages of 32 words; cols 1-2 on p0 ... *)
  let addr_of j = Darray.word_addr a [| 1; j |] in
  Alcotest.(check (option int))
    "first columns on node 0" (Some 0)
    (Memsys.home_of_addr rt.Rt.mem (Heap.byte_of_word (addr_of 1)));
  Alcotest.(check (option int))
    "last columns on node 1" (Some 1)
    (Memsys.home_of_addr rt.Rt.mem (Heap.byte_of_word (addr_of 8)))

let test_regular_row_dist_collapses () =
  (* (block, * ) with portions much smaller than a page: every page is
     requested by every processor; the last requester wins, so the whole
     array lands on one node (paper §8.2's pathology). *)
  let rt = mk () in
  (* 16-word columns, 32-word pages: every page holds two full columns, each
     containing all four processors' 4-row runs *)
  let a =
    Rt.declare_regular rt ~name:"A" ~elem:Darray.Real ~extents:[| 16; 16 |]
      ~kinds:[| Kind.Block; Kind.Star |] ()
  in
  let homes = ref [] in
  for j = 1 to 16 do
    for i = 1 to 16 do
      let h =
        Memsys.home_of_addr rt.Rt.mem
          (Heap.byte_of_word (Darray.word_addr a [| i; j |]))
      in
      homes := Option.get h :: !homes
    done
  done;
  let distinct = List.sort_uniq compare !homes in
  check_int "all pages on a single node" 1 (List.length distinct);
  (* and it is the last requester's node: proc 3 -> node 1 *)
  Alcotest.(check (list int)) "last requester wins" [ 1 ] distinct

(* ------------------------------------------------------------------ *)
(* Darray: reshaped storage *)

let layout_of (a : Darray.t) =
  match a.Darray.storage with
  | Darray.Regular { layout; _ } | Darray.Reshaped { layout; _ } -> layout
  | Darray.Plain _ -> Alcotest.failf "array %s is not distributed" a.Darray.name

let test_reshaped_addresses_local () =
  let rt = mk () in
  let a =
    Rt.declare_reshaped rt ~name:"A" ~elem:Darray.Real ~extents:[| 64; 8 |]
      ~kinds:[| Kind.Block; Kind.Star |] ()
  in
  let layout = layout_of a in
  (* every element's word address must live on the owner's node *)
  for j = 1 to 8 do
    for i = 1 to 64 do
      let p = Layout.owner layout [| i - 1; j - 1 |] in
      let node = Config.node_of_proc (tiny ()) p in
      let addr = Darray.word_addr a [| i; j |] in
      Alcotest.(check (option int))
        (Printf.sprintf "A(%d,%d) on owner node" i j)
        (Some node)
        (Memsys.home_of_addr rt.Rt.mem (Heap.byte_of_word addr))
    done
  done

let test_reshaped_injective () =
  let rt = mk () in
  let a =
    Rt.declare_reshaped rt ~name:"A" ~elem:Darray.Real ~extents:[| 13; 7 |]
      ~kinds:[| Kind.Cyclic_k 3; Kind.Block |] ()
  in
  let seen = Hashtbl.create 128 in
  for j = 1 to 7 do
    for i = 1 to 13 do
      let addr = Darray.word_addr a [| i; j |] in
      check_bool "address unique" false (Hashtbl.mem seen addr);
      Hashtbl.replace seen addr (i, j);
      (* and within the owner's portion box *)
      let layout = layout_of a in
      let p = Layout.owner layout [| i - 1; j - 1 |] in
      let base = Darray.portion_base a ~proc:p in
      let words = Darray.portion_words a ~proc:p in
      check_bool "address within portion" true (addr >= base && addr < base + words)
    done
  done

let test_reshaped_meta_block () =
  let rt = mk () in
  let a =
    Rt.declare_reshaped rt ~name:"A" ~elem:Darray.Real ~extents:[| 64; 8 |]
      ~kinds:[| Kind.Star; Kind.Block |] ()
  in
  let mb = Darray.meta_base a in
  let h = rt.Rt.heap in
  (* dim 0: star -> 1 proc; dim 1: block over 4 procs, b = 2 *)
  check_int "procs dim 0" 1 (Heap.get_int h (mb + Darray.Meta.procs_off ~dim:0));
  check_int "procs dim 1" 4 (Heap.get_int h (mb + Darray.Meta.procs_off ~dim:1));
  check_int "block dim 1" 2 (Heap.get_int h (mb + Darray.Meta.block_off ~dim:1));
  check_int "storage dim 0" 64 (Heap.get_int h (mb + Darray.Meta.stor_off ~dim:0));
  (* processor-pointer array matches descriptor copy *)
  for p = 0 to 3 do
    check_int
      (Printf.sprintf "proc %d base pointer" p)
      (Darray.portion_base a ~proc:p)
      (Heap.get_int h (mb + Darray.Meta.bases_off ~ndims:2 + p))
  done

let test_reshaped_data_roundtrip () =
  let rt = mk () in
  let a =
    Rt.declare_reshaped rt ~name:"A" ~elem:Darray.Real ~extents:[| 16; 16 |]
      ~kinds:[| Kind.Block; Kind.Block |] ()
  in
  for j = 1 to 16 do
    for i = 1 to 16 do
      Rt.write rt ~addr:(Darray.word_addr a [| i; j |]) ~elem:Darray.Real
        (float_of_int ((100 * i) + j))
    done
  done;
  let ok = ref true in
  for j = 1 to 16 do
    for i = 1 to 16 do
      if
        Rt.read rt ~addr:(Darray.word_addr a [| i; j |]) ~elem:Darray.Real
        <> float_of_int ((100 * i) + j)
      then ok := false
    done
  done;
  check_bool "values survive reshaping" true !ok

let prop_reshaped_injective_within_box =
  QCheck.Test.make ~count:100 ~name:"reshaped addressing injective, in-box"
    QCheck.(
      make
        Gen.(
          let* n1 = int_range 1 20 in
          let* n2 = int_range 1 20 in
          let* k1 =
            oneof [ return Kind.Block; return Kind.Cyclic; map (fun k -> Kind.Cyclic_k k) (int_range 1 4) ]
          in
          let* k2 =
            oneof [ return Kind.Star; return Kind.Block; return Kind.Cyclic ]
          in
          return (n1, n2, k1, k2)))
    (fun (n1, n2, k1, k2) ->
      let rt = mk () in
      let a =
        Rt.declare_reshaped rt ~name:"A" ~elem:Darray.Real ~extents:[| n1; n2 |]
          ~kinds:[| k1; k2 |] ()
      in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      for j = 1 to n2 do
        for i = 1 to n1 do
          let addr = Darray.word_addr a [| i; j |] in
          if Hashtbl.mem seen addr then ok := false;
          Hashtbl.replace seen addr ()
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Redistribute *)

let test_redistribute_moves_pages () =
  let rt = mk () in
  ignore
    (Rt.declare_regular rt ~name:"A" ~elem:Darray.Real ~extents:[| 64; 8 |]
       ~kinds:[| Kind.Star; Kind.Block |] ());
  match Rt.redistribute rt ~name:"A" ~kinds:[| Kind.Star; Kind.Cyclic |] () with
  | Error e -> Alcotest.fail e
  | Ok { Rt.moved; words = _; rounds = _; round_words = _; retries; fell_back }
    ->
      check_bool "some pages moved" true (moved > 0);
      check_int "no retries without faults" 0 retries;
      check_bool "no fallback without faults" false fell_back;
      check_int "accounted" moved rt.Rt.redist_pages

let test_redistribute_rejects_reshaped () =
  let rt = mk () in
  ignore
    (Rt.declare_reshaped rt ~name:"R" ~elem:Darray.Real ~extents:[| 32 |]
       ~kinds:[| Kind.Block |] ());
  (* PR 8: reshaped arrays redistribute too, via copy-then-install *)
  check_bool "reshaped accepted" true
    (Result.is_ok (Rt.redistribute rt ~name:"R" ~kinds:[| Kind.Cyclic |] ()));
  ignore (Rt.declare_plain rt ~name:"P" ~elem:Darray.Real ~extents:[| 32 |] ());
  check_bool "plain rejected" true
    (Result.is_error (Rt.redistribute rt ~name:"P" ~kinds:[| Kind.Cyclic |] ()));
  check_bool "unknown rejected" true
    (Result.is_error (Rt.redistribute rt ~name:"nope" ~kinds:[| Kind.Cyclic |] ()))

(* regression for the redistribution shootdown: migration gives every
   remapped page a fresh frame, so stale per-proc TLB entries must be
   invalidated.  Random access/redistribute/access interleavings must
   leave nothing the machine audit (which cross-checks TLBs against the
   page table) can object to. *)
let prop_redistribute_shootdown =
  QCheck.Test.make ~count:50 ~name:"redistribute invalidates TLBs on migration"
    QCheck.(
      make
        ~print:(fun (n, k1, k2, seed) ->
          Printf.sprintf "n=%d %s->%s seed=%d" n (Kind.to_string k1)
            (Kind.to_string k2) seed)
        Gen.(
          let* n = int_range 8 64 in
          let* k1 =
            oneofl [ Kind.Block; Kind.Cyclic; Kind.Cyclic_k 2 ]
          in
          let* k2 =
            oneofl [ Kind.Block; Kind.Cyclic; Kind.Cyclic_k 3 ]
          in
          let* seed = int_range 0 9999 in
          return (n, k1, k2, seed)))
    (fun (n, k1, k2, seed) ->
      let rt = mk () in
      let a =
        Rt.declare_regular rt ~name:"A" ~elem:Darray.Real ~extents:[| n |]
          ~kinds:[| k1 |] ()
      in
      let words =
        Array.of_list
          (List.concat_map
             (fun (lo, hi) -> List.init (hi - lo + 1) (fun i -> lo + i))
             (Darray.word_ranges a))
      in
      let rng = Random.State.make [| seed |] in
      let now = ref 0 in
      let touch () =
        let w = words.(Random.State.int rng (Array.length words)) in
        let proc = Random.State.int rng 4 in
        let write = Random.State.bool rng in
        now :=
          !now
          + Memsys.access rt.Rt.mem ~proc ~addr:(Heap.byte_of_word w) ~write
              ~now:!now
      in
      for _ = 1 to 32 do touch () done;
      (match Rt.redistribute rt ~name:"A" ~kinds:[| k2 |] () with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_report e);
      for _ = 1 to 32 do touch () done;
      match Memsys.audit rt.Rt.mem @ Rt.audit rt with
      | [] -> true
      | vs ->
          QCheck.Test.fail_reportf "audit: %s"
            (String.concat "; "
               (List.map
                  (fun v ->
                    v.Ddsm_check.Audit.invariant ^ ": "
                    ^ v.Ddsm_check.Audit.detail)
                  vs)))

(* ------------------------------------------------------------------ *)
(* Argcheck *)

let test_argcheck_whole_array () =
  let t = Argcheck.create () in
  Argcheck.register t ~addr:100
    (Argcheck.Whole_array { extents = [| 10; 20 |]; kinds = [| Kind.Block; Kind.Star |] });
  check_bool "exact match ok" true
    (Result.is_ok
       (Argcheck.check_entry t ~addr:100 ~name:"X" ~formal_extents:[| 10; 20 |] ()));
  check_bool "size mismatch flagged" true
    (Result.is_error
       (Argcheck.check_entry t ~addr:100 ~name:"X" ~formal_extents:[| 10; 21 |] ()));
  check_bool "rank mismatch flagged" true
    (Result.is_error
       (Argcheck.check_entry t ~addr:100 ~name:"X" ~formal_extents:[| 200 |] ()));
  check_bool "distribution match ok" true
    (Result.is_ok
       (Argcheck.check_entry t ~addr:100 ~name:"X" ~formal_extents:[| 10; 20 |]
          ~formal_kinds:[| Kind.Block; Kind.Star |] ()));
  check_bool "distribution mismatch flagged" true
    (Result.is_error
       (Argcheck.check_entry t ~addr:100 ~name:"X" ~formal_extents:[| 10; 20 |]
          ~formal_kinds:[| Kind.Cyclic; Kind.Star |] ()))

let test_argcheck_portion () =
  (* paper §3.2.1: A(1000) cyclic(5), call mysub(A(i)) passes a 5-element
     portion; mysub's formal may declare at most 5 elements *)
  let t = Argcheck.create () in
  Argcheck.register t ~addr:500 (Argcheck.Portion { words = 5 });
  check_bool "X(5) accepted" true
    (Result.is_ok (Argcheck.check_entry t ~addr:500 ~name:"X" ~formal_extents:[| 5 |] ()));
  check_bool "X(6) rejected" true
    (Result.is_error
       (Argcheck.check_entry t ~addr:500 ~name:"X" ~formal_extents:[| 6 |] ()));
  check_bool "balanced unregister ok" true
    (Result.is_ok (Argcheck.unregister t ~addr:500));
  check_bool "after return, no check" true
    (Result.is_ok (Argcheck.check_entry t ~addr:500 ~name:"X" ~formal_extents:[| 99 |] ()))

let test_argcheck_stacking () =
  let t = Argcheck.create () in
  Argcheck.register t ~addr:7 (Argcheck.Portion { words = 5 });
  Argcheck.register t ~addr:7 (Argcheck.Portion { words = 3 });
  check_int "two entries" 2 (Argcheck.depth t);
  check_bool "innermost wins" true
    (Result.is_error (Argcheck.check_entry t ~addr:7 ~name:"X" ~formal_extents:[| 4 |] ()));
  check_bool "inner pop ok" true (Result.is_ok (Argcheck.unregister t ~addr:7));
  check_bool "outer visible again" true
    (Result.is_ok (Argcheck.check_entry t ~addr:7 ~name:"X" ~formal_extents:[| 4 |] ()));
  check_bool "outer pop ok" true (Result.is_ok (Argcheck.unregister t ~addr:7));
  (* unbalanced: the underflow must be reported, not swallowed *)
  (match Argcheck.unregister t ~addr:7 with
  | Ok () -> Alcotest.fail "unbalanced unregister must be an error"
  | Error m ->
      check_bool "underflow names the protocol" true
        (astr_contains m "argument-check underflow"));
  check_int "empty" 0 (Argcheck.depth t)

(* ------------------------------------------------------------------ *)
(* Rt *)

let test_rt_duplicate_array () =
  let rt = mk () in
  ignore (Rt.declare_plain rt ~name:"A" ~elem:Darray.Real ~extents:[| 4 |] ());
  check_bool "duplicate rejected" true
    (try
       ignore (Rt.declare_plain rt ~name:"A" ~elem:Darray.Real ~extents:[| 4 |] ());
       false
     with Invalid_argument _ -> true);
  check_bool "lookup" true (Rt.find_array rt "A" <> None);
  check_bool "missing lookup" true (Rt.find_array rt "Z" = None)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let () =
  Alcotest.run "runtime"
    [
      ("heap", [ Alcotest.test_case "bump allocation" `Quick test_heap_alloc ]);
      ( "pools",
        [
          Alcotest.test_case "local & dense" `Quick test_pools_local_and_dense;
          Alcotest.test_case "slab growth" `Quick test_pools_slab_growth;
        ] );
      ( "darray.plain",
        [
          Alcotest.test_case "column major" `Quick test_plain_column_major;
          Alcotest.test_case "lower bounds" `Quick test_plain_lower_bounds;
        ] );
      ( "darray.regular",
        [
          Alcotest.test_case "(*,block) spreads pages" `Quick test_regular_column_dist_spreads;
          Alcotest.test_case "(block,*) collapses to one node" `Quick test_regular_row_dist_collapses;
        ] );
      ( "darray.reshaped",
        [
          Alcotest.test_case "portions on owner nodes" `Quick test_reshaped_addresses_local;
          Alcotest.test_case "addressing injective" `Quick test_reshaped_injective;
          Alcotest.test_case "descriptor block contents" `Quick test_reshaped_meta_block;
          Alcotest.test_case "data roundtrip" `Quick test_reshaped_data_roundtrip;
        ] );
      qsuite "darray.props" [ prop_reshaped_injective_within_box ];
      ( "redistribute",
        [
          Alcotest.test_case "moves pages" `Quick test_redistribute_moves_pages;
          Alcotest.test_case "rejects reshaped/plain/unknown" `Quick test_redistribute_rejects_reshaped;
        ] );
      qsuite "redistribute.props" [ prop_redistribute_shootdown ];
      ( "argcheck",
        [
          Alcotest.test_case "whole array" `Quick test_argcheck_whole_array;
          Alcotest.test_case "portion" `Quick test_argcheck_portion;
          Alcotest.test_case "stacking" `Quick test_argcheck_stacking;
        ] );
      ("rt", [ Alcotest.test_case "registry" `Quick test_rt_duplicate_array ]);
    ]

(* Tests for the distribution algebra: Table 1 addressing math, Figure 2
   affinity scheduling, processor grids, portion enumeration. *)

open Ddsm_dist
module Ap = Affinity_ref.Ap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Intmath *)

let test_fdiv () =
  check_int "fdiv 7 2" 3 (Intmath.fdiv 7 2);
  check_int "fdiv -7 2" (-4) (Intmath.fdiv (-7) 2);
  check_int "fdiv -8 2" (-4) (Intmath.fdiv (-8) 2);
  check_int "fdiv 0 5" 0 (Intmath.fdiv 0 5);
  check_int "fmod -7 3" 2 (Intmath.fmod (-7) 3);
  check_int "fmod 7 3" 1 (Intmath.fmod 7 3);
  check_int "cdiv 7 2" 4 (Intmath.cdiv 7 2);
  check_int "cdiv 8 2" 4 (Intmath.cdiv 8 2);
  check_int "cdiv -7 2" (-3) (Intmath.cdiv (-7) 2);
  Alcotest.check_raises "fdiv by zero"
    (Invalid_argument "Intmath.fdiv: non-positive divisor") (fun () ->
      ignore (Intmath.fdiv 1 0))

let test_egcd () =
  List.iter
    (fun (a, b) ->
      let g, x, y = Intmath.egcd a b in
      check_int (Printf.sprintf "egcd %d %d bezout" a b) g ((a * x) + (b * y));
      check_bool "g non-negative" true (g >= 0))
    [ (12, 18); (18, 12); (7, 13); (0, 5); (5, 0); (-12, 18); (1, 1); (100, 75) ]

let test_align_up () =
  check_int "align in grid" 7 (Ap.align_up 7 ~base:1 ~step:3);
  check_int "align up" 7 (Ap.align_up 6 ~base:1 ~step:3);
  check_int "align below base" 1 (Ap.align_up 0 ~base:1 ~step:3);
  check_int "align equal base" 1 (Ap.align_up 1 ~base:1 ~step:3)

let test_ap_intersect_brute () =
  (* brute force over small parameter space *)
  for s1 = 0 to 4 do
    for st1 = 1 to 5 do
      for s2 = 0 to 4 do
        for st2 = 1 to 5 do
          let a = { Ap.start = s1; step = st1 }
          and b = { Ap.start = s2; step = st2 } in
          let in_ap { Ap.start; step } x = x >= start && (x - start) mod step = 0 in
          let brute =
            List.filter (fun x -> in_ap a x && in_ap b x) (List.init 200 Fun.id)
          in
          match Ap.intersect a b with
          | None ->
              Alcotest.(check (list int)) "empty intersection" [] brute
          | Some ({ Ap.start; step } as r) ->
              let mine = List.filter (in_ap r) (List.init 200 Fun.id) in
              Alcotest.(check (list int))
                (Printf.sprintf "ap(%d,%d) ∩ ap(%d,%d) start=%d step=%d" s1 st1
                   s2 st2 start step)
                brute mine
        done
      done
    done
  done

let test_intmath_min_int () =
  (* fdiv/fmod are exact at the bottom of the int range (the old
     -((-a + b - 1) / b) formula overflowed at -min_int) *)
  check_int "fdiv min_int 1" min_int (Intmath.fdiv min_int 1);
  check_int "fdiv min_int 2" (min_int / 2) (Intmath.fdiv min_int 2);
  check_int "fdiv (min_int+1) 2" ((min_int / 2) - 1 + 1)
    (Intmath.fdiv (min_int + 1) 2);
  check_int "fmod min_int 3" ((min_int mod 3) + 3) (Intmath.fmod min_int 3);
  (* |min_int| is unrepresentable: egcd refuses instead of returning a
     negative "gcd" *)
  let expect_invalid name f =
    check_bool name true
      (match f () with
      | exception Invalid_argument _ -> true
      | _ -> false)
  in
  expect_invalid "egcd min_int 0" (fun () -> Intmath.egcd min_int 0);
  expect_invalid "egcd 0 min_int" (fun () -> Intmath.egcd 0 min_int);
  expect_invalid "gcd min_int 12" (fun () -> Intmath.gcd min_int 12);
  (* negative (but representable) operands still give a non-negative gcd *)
  check_int "gcd -12 18" 6 (Intmath.gcd (-12) 18);
  check_int "gcd (min_int+1) 0" max_int (Intmath.gcd (min_int + 1) 0)

let in_ap { Ap.start; step } x = x >= start && Intmath.fmod (x - start) step = 0

(* Property: against a brute-force oracle, with negative starts. The
   oracle enumerates lo .. lo + st1*st2 which always contains the first
   common element when one exists (period divides st1*st2). *)
let prop_ap_intersect_oracle =
  QCheck.Test.make ~count:1000 ~name:"ap_intersect: matches brute oracle"
    QCheck.(
      quad (int_range (-100) 100) (int_range 1 50) (int_range (-100) 100)
        (int_range 1 50))
    (fun (s1, st1, s2, st2) ->
      let a = { Ap.start = s1; step = st1 }
      and b = { Ap.start = s2; step = st2 } in
      let lo = max s1 s2 in
      let brute =
        List.find_opt
          (fun x -> in_ap a x && in_ap b x)
          (List.init ((st1 * st2) + 1) (fun i -> lo + i))
      in
      match (Ap.intersect a b, brute) with
      | None, None -> true
      | None, Some _ | Some _, None -> false
      | Some r, Some first ->
          r.Ap.start = first
          && r.Ap.step = st1 * st2 / Intmath.gcd st1 st2)

let test_ap_intersect_large_steps () =
  (* the raw CRT product u * (diff/g) overflows for large steps and
     far-apart starts; verify by congruence + minimality instead of
     enumeration *)
  let check_pair a b =
    match Ap.intersect a b with
    | None -> Alcotest.fail "expected non-empty intersection"
    | Some r ->
        let lo = max a.Ap.start b.Ap.start in
        check_bool "start in a" true (in_ap a r.Ap.start);
        check_bool "start in b" true (in_ap b r.Ap.start);
        check_bool "start >= lo" true (r.Ap.start >= lo);
        check_int "step is lcm"
          (a.Ap.step / Intmath.gcd a.Ap.step b.Ap.step
          * b.Ap.step)
          r.Ap.step;
        (* minimality: the previous element of the result progression is
           below the admissible range *)
        check_bool "start is minimal" true (r.Ap.start - r.Ap.step < lo)
  in
  let big1 = (1 lsl 31) - 1 (* prime 2^31-1 *) and big2 = (1 lsl 30) + 3 in
  check_pair
    { Ap.start = -1_000_000_000; step = big1 }
    { Ap.start = 999_999_937; step = big2 };
  check_pair
    { Ap.start = 0; step = big1 }
    { Ap.start = max_int / 2; step = 2 };
  (* explicit refusals instead of silent wraps *)
  let expect_invalid name f =
    check_bool name true
      (match f () with
      | exception Invalid_argument _ -> true
      | _ -> false)
  in
  expect_invalid "step >= 2^31 refused" (fun () ->
      Ap.intersect
        { Ap.start = 0; step = 1 lsl 31 }
        { Ap.start = 0; step = 3 });
  expect_invalid "overflowing start difference refused" (fun () ->
      Ap.intersect
        { Ap.start = min_int + 10; step = 3 }
        { Ap.start = max_int - 10; step = 5 })

(* ------------------------------------------------------------------ *)
(* Kind *)

(* kinds print in directive syntax, and what prints parses back *)
let test_kind_strings () =
  let parse k =
    let src =
      Printf.sprintf
        "      program p\n      real*8 a(64)\nc$distribute a(%s)\n      end\n" k
    in
    match Ddsm_frontend.Parser.parse_file ~fname:"k.pf" src with
    | Ok { Ddsm_ir.Decl.routines = [ r ]; _ } -> (
        match r.Ddsm_ir.Decl.rdists with
        | [ { Ddsm_ir.Decl.dkinds = [ k ]; _ } ] -> Ok k
        | _ -> Error "expected one one-dimensional distribution")
    | Ok _ -> Error "expected one routine"
    | Error e -> Error e
  in
  let roundtrip k =
    match parse (Kind.to_string k) with
    | Ok k' -> check_bool (Kind.to_string k) true (Kind.equal k k')
    | Error e -> Alcotest.fail e
  in
  List.iter roundtrip [ Kind.Block; Kind.Cyclic; Kind.Cyclic_k 7; Kind.Star ];
  check_bool "case-insensitive" true (parse "BLOCK" = Ok Kind.Block);
  check_bool "cyclic(1) = cyclic" true (Kind.equal (Kind.Cyclic_k 1) Kind.Cyclic);
  check_bool "bad kind rejected" true
    (match parse "banana" with Error _ -> true | Ok _ -> false);
  check_bool "cyclic(0) rejected" true
    (match parse "cyclic(0)" with Error _ -> true | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Dim_map: Table 1 *)

let test_table1_block () =
  (* N=1000, P=8: b = 125 *)
  let dm = Dim_map.make ~extent:1000 ~procs:8 Kind.Block in
  check_int "block size" 125 dm.Dim_map.block;
  check_int "owner 0" 0 (Dim_map.owner dm 0);
  check_int "owner 124" 0 (Dim_map.owner dm 124);
  check_int "owner 125" 1 (Dim_map.owner dm 125);
  check_int "owner 999" 7 (Dim_map.owner dm 999);
  check_int "offset 125" 0 (Dim_map.offset dm 125);
  check_int "offset 999" 124 (Dim_map.offset dm 999);
  check_int "global inverse" 999 (Dim_map.global dm ~proc:7 ~offset:124)

let test_table1_cyclic () =
  let dm = Dim_map.make ~extent:10 ~procs:3 Kind.Cyclic in
  (* elements: p0 {0,3,6,9} p1 {1,4,7} p2 {2,5,8} *)
  check_int "owner 9" 0 (Dim_map.owner dm 9);
  check_int "offset 9" 3 (Dim_map.offset dm 9);
  check_int "portion p0" 4 (Dim_map.portion_size dm ~proc:0);
  check_int "portion p1" 3 (Dim_map.portion_size dm ~proc:1);
  check_int "portion p2" 3 (Dim_map.portion_size dm ~proc:2);
  check_int "storage" 4 (Dim_map.storage_extent dm)

let test_table1_cyclic_k () =
  (* paper §3.2.1 example: real*8 A(1000), cyclic(5): chunks of 5 dealt out *)
  let dm = Dim_map.make ~extent:1000 ~procs:4 (Kind.Cyclic_k 5) in
  check_int "owner of 0" 0 (Dim_map.owner dm 0);
  check_int "owner of 5" 1 (Dim_map.owner dm 5);
  check_int "owner of 20" 0 (Dim_map.owner dm 20);
  check_int "offset of 20" 5 (Dim_map.offset dm 20);
  check_int "offset of 23" 8 (Dim_map.offset dm 23);
  check_int "portion sizes" 250 (Dim_map.portion_size dm ~proc:0);
  (* every chunk is a contiguous range of 5 *)
  List.iter
    (fun (lo, hi) -> check_int "chunk width 5" 4 (hi - lo))
    (Dim_map.portion_ranges dm ~proc:2)

let test_cyclic_k_ragged () =
  (* N=13, k=3, P=2: chunks [0,2][3,5][6,8][9,11][12,12];
     p0 gets chunks 0,2,4 = {0..2, 6..8, 12}; p1 gets chunks 1,3 *)
  let dm = Dim_map.make ~extent:13 ~procs:2 (Kind.Cyclic_k 3) in
  check_int "p0 size" 7 (Dim_map.portion_size dm ~proc:0);
  check_int "p1 size" 6 (Dim_map.portion_size dm ~proc:1);
  Alcotest.(check (list (pair int int)))
    "p0 ranges" [ (0, 2); (6, 8); (12, 12) ]
    (Dim_map.portion_ranges dm ~proc:0);
  check_int "owner 12" 0 (Dim_map.owner dm 12);
  check_int "offset 12" 6 (Dim_map.offset dm 12);
  check_int "storage rounds up" 9 (Dim_map.storage_extent dm)

let test_star () =
  let dm = Dim_map.make ~extent:42 ~procs:1 Kind.Star in
  check_int "owner" 0 (Dim_map.owner dm 17);
  check_int "offset identity" 17 (Dim_map.offset dm 17);
  Alcotest.check_raises "star with procs>1 rejected"
    (Invalid_argument "Dim_map.make: a '*' dimension cannot span processors")
    (fun () -> ignore (Dim_map.make ~extent:10 ~procs:2 Kind.Star))

let all_kinds_gen =
  QCheck.Gen.(
    oneof
      [ return Kind.Block; return Kind.Cyclic;
        map (fun k -> Kind.Cyclic_k k) (int_range 1 7) ])

let dim_map_gen =
  QCheck.Gen.(
    let* extent = int_range 1 200 in
    let* procs = int_range 1 16 in
    let* kind = all_kinds_gen in
    return (Dim_map.make ~extent ~procs kind))

let dim_map_arb =
  QCheck.make dim_map_gen ~print:(fun dm -> Format.asprintf "%a" Dim_map.pp dm)

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"dim_map: global(owner,offset) = id"
    dim_map_arb (fun dm ->
      let ok = ref true in
      for i = 0 to dm.Dim_map.extent - 1 do
        let p = Dim_map.owner dm i and o = Dim_map.offset dm i in
        if p < 0 || p >= dm.Dim_map.procs then ok := false;
        if o < 0 || o >= Dim_map.storage_extent dm then ok := false;
        if Dim_map.global dm ~proc:p ~offset:o <> i then ok := false
      done;
      !ok)

let prop_portion_partition =
  QCheck.Test.make ~count:500 ~name:"dim_map: portions partition [0,N)"
    dim_map_arb (fun dm ->
      let seen = Array.make dm.Dim_map.extent 0 in
      let total = ref 0 in
      for p = 0 to dm.Dim_map.procs - 1 do
        let count = ref 0 in
        List.iter
          (fun (lo, hi) ->
            for i = lo to hi do
              seen.(i) <- seen.(i) + 1;
              incr count;
              if Dim_map.owner dm i <> p then failwith "owner mismatch"
            done)
          (Dim_map.portion_ranges dm ~proc:p);
        if !count <> Dim_map.portion_size dm ~proc:p then
          failwith "portion_size mismatch";
        total := !total + !count
      done;
      !total = dm.Dim_map.extent && Array.for_all (fun c -> c = 1) seen)

let prop_ranges_sorted_maximal =
  QCheck.Test.make ~count:300 ~name:"dim_map: portion_ranges sorted & maximal"
    dim_map_arb (fun dm ->
      let ok = ref true in
      for p = 0 to dm.Dim_map.procs - 1 do
        let rs = Dim_map.portion_ranges dm ~proc:p in
        let rec chk = function
          | (lo, hi) :: ((lo2, _) :: _ as rest) ->
              if lo > hi || hi + 1 >= lo2 then ok := false;
              chk rest
          | [ (lo, hi) ] -> if lo > hi then ok := false
          | [] -> ()
        in
        chk rs
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Grid *)

let test_grid_basics () =
  let g = Grid.assign ~nprocs:64 ~kinds:[| Kind.Block; Kind.Block |] ~onto:None in
  Alcotest.(check (array int)) "64 over 2 dims" [| 8; 8 |] g.Grid.per_dim;
  let g = Grid.assign ~nprocs:8 ~kinds:[| Kind.Star; Kind.Block |] ~onto:None in
  Alcotest.(check (array int)) "star gets 1" [| 1; 8 |] g.Grid.per_dim;
  let g =
    Grid.assign ~nprocs:8 ~kinds:[| Kind.Block; Kind.Block |] ~onto:(Some [| 2; 1 |])
  in
  Alcotest.(check (array int)) "onto 2:1" [| 4; 2 |] g.Grid.per_dim;
  let g = Grid.assign ~nprocs:7 ~kinds:[| Kind.Star |] ~onto:None in
  check_int "no distributed dims -> total 1" 1 g.Grid.total

let test_grid_exact_product () =
  List.iter
    (fun n ->
      let g =
        Grid.assign ~nprocs:n ~kinds:[| Kind.Block; Kind.Cyclic; Kind.Block |]
          ~onto:None
      in
      check_int (Printf.sprintf "product = %d" n) n
        (Array.fold_left ( * ) 1 g.Grid.per_dim))
    [ 1; 2; 3; 6; 8; 12; 16; 24; 36; 60; 96; 128 ]

let prop_grid_linear_roundtrip =
  QCheck.Test.make ~count:300 ~name:"grid: delinear . linear = id"
    QCheck.(pair (int_range 1 128) (int_range 1 3))
    (fun (nprocs, ndist) ->
      let kinds = Array.make ndist Kind.Block in
      let g = Grid.assign ~nprocs ~kinds ~onto:None in
      let ok = ref true in
      for p = 0 to g.Grid.total - 1 do
        if Grid.linear g (Grid.delinear g p) <> p then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_column_dist () =
  (* real*8 A(1000,1000); c$distribute A ( *, block): contiguous portion of
     8*10^6/P bytes per processor (paper §3.2 first example) *)
  let l =
    Layout.make ~extents:[| 1000; 1000 |] ~kinds:[| Kind.Star; Kind.Block |]
      ~nprocs:8 ()
  in
  let ranges = Layout.contiguous_ranges l ~proc:3 ~elem_bytes:8 in
  check_int "single contiguous piece" 1 (List.length ranges);
  let lo, hi = List.hd ranges in
  check_int "piece size = 8e6/8" 1_000_000 (hi - lo + 1)

let test_layout_row_dist () =
  (* c$distribute A (block, * ): column-major layout means each contiguous
     piece is only 8*1000/P bytes (paper §3.2 second example) *)
  let l =
    Layout.make ~extents:[| 1000; 1000 |] ~kinds:[| Kind.Block; Kind.Star |]
      ~nprocs:8 ()
  in
  let ranges = Layout.contiguous_ranges l ~proc:3 ~elem_bytes:8 in
  check_int "1000 pieces (one per column)" 1000 (List.length ranges);
  let lo, hi = List.hd ranges in
  check_int "piece size = 8000/8" 1000 (hi - lo + 1)

(* A layout is a per-dimension composition: the element [proc] holds at
   local [offsets], and the extents of its portion, come from the
   dimension maps and the processor grid. *)
let global_of (l : Layout.t) ~proc ~offsets =
  let ow = Grid.delinear l.Layout.grid proc in
  Array.mapi
    (fun d off -> Dim_map.global l.Layout.dims.(d) ~proc:ow.(d) ~offset:off)
    offsets

let portion_extents (l : Layout.t) ~proc =
  let ow = Grid.delinear l.Layout.grid proc in
  Array.mapi (fun d p -> Dim_map.portion_size l.Layout.dims.(d) ~proc:p) ow

let test_layout_block_block () =
  let l =
    Layout.make ~extents:[| 100; 100 |] ~kinds:[| Kind.Block; Kind.Block |]
      ~nprocs:4 ()
  in
  Alcotest.(check (array int)) "grid 2x2" [| 2; 2 |] l.Layout.grid.Grid.per_dim;
  check_int "owner of (0,0)" 0 (Layout.owner l [| 0; 0 |]);
  check_int "owner of (99,99)" 3 (Layout.owner l [| 99; 99 |]);
  check_int "owner of (99,0)" 1 (Layout.owner l [| 99; 0 |]);
  Alcotest.(check (array int)) "portion extents" [| 50; 50 |]
    (portion_extents l ~proc:2)

let layout_gen =
  QCheck.Gen.(
    let* nd = int_range 1 3 in
    let* extents = array_repeat nd (int_range 1 40) in
    let* kinds =
      array_repeat nd
        (oneof
           [ return Kind.Block; return Kind.Cyclic;
             map (fun k -> Kind.Cyclic_k k) (int_range 1 4); return Kind.Star ])
    in
    let* nprocs = int_range 1 16 in
    return (Layout.make ~extents ~kinds ~nprocs ()))

let layout_arb =
  QCheck.make layout_gen ~print:(fun l -> Format.asprintf "%a" Layout.pp l)

let prop_layout_roundtrip =
  QCheck.Test.make ~count:200 ~name:"layout: global_of inverts owner/offsets"
    layout_arb (fun l ->
      let ok = ref true in
      let total = ref 0 in
      let stor = Layout.storage_extents l in
      let box = Array.fold_left ( * ) 1 stor in
      for p = 0 to Layout.nprocs l - 1 do
        Layout.iter_portion l ~proc:p (fun idx ->
            incr total;
            if Layout.owner l idx <> p then ok := false;
            let lin = Layout.local l ~stor idx in
            if lin < 0 || lin >= box then ok := false;
            (* de-linearise over the storage box, first dimension fastest *)
            let rest = ref lin in
            let offs =
              Array.map
                (fun n ->
                  let o = !rest mod n in
                  rest := !rest / n;
                  o)
                stor
            in
            let back = global_of l ~proc:p ~offsets:offs in
            if back <> idx then ok := false)
      done;
      !ok && !total = Array.fold_left ( * ) 1 l.Layout.extents)

let prop_layout_ranges_cover =
  QCheck.Test.make ~count:200 ~name:"layout: contiguous_ranges cover portion"
    layout_arb (fun l ->
      let elem_bytes = 8 in
      let ok = ref true in
      for p = 0 to Layout.nprocs l - 1 do
        let bytes =
          List.fold_left
            (fun acc (lo, hi) ->
              if lo > hi || lo mod elem_bytes <> 0 then ok := false;
              acc + (hi - lo + 1))
            0
            (Layout.contiguous_ranges l ~proc:p ~elem_bytes)
        in
        let portion =
          Array.fold_left ( * ) 1 (portion_extents l ~proc:p)
        in
        if bytes <> portion * elem_bytes then ok := false
      done;
      !ok)

let prop_layout_ranges_owned =
  QCheck.Test.make ~count:100 ~name:"layout: every byte in ranges is owned"
    layout_arb (fun l ->
      let elem_bytes = 8 in
      let nd = Array.length l.Layout.extents in
      let delinear lin =
        let idx = Array.make nd 0 in
        let rest = ref lin in
        for d = 0 to nd - 1 do
          idx.(d) <- !rest mod l.Layout.extents.(d);
          rest := !rest / l.Layout.extents.(d)
        done;
        idx
      in
      let ok = ref true in
      for p = 0 to Layout.nprocs l - 1 do
        List.iter
          (fun (lo, hi) ->
            let e = ref (lo / elem_bytes) in
            while !e <= hi / elem_bytes do
              if Layout.owner l (delinear !e) <> p then ok := false;
              incr e
            done)
          (Layout.contiguous_ranges l ~proc:p ~elem_bytes)
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Affinity: Figure 2 *)

let brute_force_iters dm spec ~lb ~ub ~step ~proc =
  let res = ref [] in
  let i = ref lb in
  while !i <= ub do
    let e = (spec.Affinity_ref.s * !i) + spec.Affinity_ref.c in
    if e >= 0 && e < dm.Dim_map.extent && Dim_map.owner dm e = proc then
      res := !i :: !res;
    i := !i + step
  done;
  List.rev !res

let test_affinity_block_simple () =
  (* do i=1,n affinity(i)=data(A(i)), A(block) over 4 procs, n=100:
     owner p gets i in [p*25, (p+1)*25-1] *)
  let dm = Dim_map.make ~extent:100 ~procs:4 Kind.Block in
  let spec = { Affinity_ref.s = 1; c = 0 } in
  Alcotest.(check (list int))
    "proc 1 block range"
    (List.init 25 (fun k -> 25 + k))
    (Affinity_ref.iters dm spec ~lb:0 ~ub:99 ~step:1 ~proc:1)

let test_affinity_cyclic_simple () =
  let dm = Dim_map.make ~extent:100 ~procs:4 Kind.Cyclic in
  let spec = { Affinity_ref.s = 1; c = 0 } in
  (* Figure 2: do i = LB + ((p-LB-c) mod P), UB, P *)
  let got = Affinity_ref.pieces dm spec ~lb:0 ~ub:99 ~step:1 ~proc:2 in
  (match got with
  | [ { Affinity_ref.lo; hi; step } ] ->
      check_int "lo" 2 lo;
      check_int "step = P" 4 step;
      check_bool "hi" true (hi >= 96)
  | _ -> Alcotest.fail "expected a single piece");
  Alcotest.(check (list int))
    "matches brute force"
    (brute_force_iters dm spec ~lb:0 ~ub:99 ~step:1 ~proc:2)
    (Affinity_ref.iters dm spec ~lb:0 ~ub:99 ~step:1 ~proc:2)

let test_affinity_zero_stride () =
  let dm = Dim_map.make ~extent:100 ~procs:4 Kind.Block in
  let spec = { Affinity_ref.s = 0; c = 60 } in
  (* element 60 is on proc 2 (b=25); every iteration goes there *)
  check_int "all on owner" 50
    (List.length (Affinity_ref.iters dm spec ~lb:1 ~ub:50 ~step:1 ~proc:2));
  check_int "none elsewhere" 0
    (List.length (Affinity_ref.iters dm spec ~lb:1 ~ub:50 ~step:1 ~proc:0))

let test_affinity_offset () =
  (* affinity(i) = data(A(i+10)) with block distribution *)
  let dm = Dim_map.make ~extent:100 ~procs:4 Kind.Block in
  let spec = { Affinity_ref.s = 1; c = 10 } in
  for p = 0 to 3 do
    Alcotest.(check (list int))
      (Printf.sprintf "proc %d" p)
      (brute_force_iters dm spec ~lb:0 ~ub:89 ~step:1 ~proc:p)
      (Affinity_ref.iters dm spec ~lb:0 ~ub:89 ~step:1 ~proc:p)
  done

let affinity_case_gen =
  QCheck.Gen.(
    let* dm = dim_map_gen in
    let* s = int_range 0 4 in
    let* c = int_range (-10) 10 in
    let* lb = int_range (-5) 30 in
    let* len = int_range 0 80 in
    let* step = int_range 1 5 in
    return (dm, { Affinity_ref.s; c }, lb, lb + len, step))

let affinity_case_arb =
  QCheck.make affinity_case_gen ~print:(fun (dm, spec, lb, ub, step) ->
      Format.asprintf "%a affinity(%d*i+%d) lb=%d ub=%d step=%d" Dim_map.pp dm
        spec.Affinity_ref.s spec.Affinity_ref.c lb ub step)

let prop_affinity_matches_brute_force =
  QCheck.Test.make ~count:1000 ~name:"affinity: pieces = brute force owner scan"
    affinity_case_arb (fun (dm, spec, lb, ub, step) ->
      let ok = ref true in
      for p = 0 to dm.Dim_map.procs - 1 do
        let got = Affinity_ref.iters dm spec ~lb ~ub ~step ~proc:p in
        let want = brute_force_iters dm spec ~lb ~ub ~step ~proc:p in
        if got <> want then ok := false
      done;
      !ok)

let prop_affinity_disjoint_cover =
  QCheck.Test.make ~count:500 ~name:"affinity: pieces disjoint across procs"
    affinity_case_arb (fun (dm, spec, lb, ub, step) ->
      let tbl = Hashtbl.create 64 in
      let ok = ref true in
      for p = 0 to dm.Dim_map.procs - 1 do
        List.iter
          (fun i ->
            if Hashtbl.mem tbl i then ok := false;
            Hashtbl.add tbl i p)
          (Affinity_ref.iters dm spec ~lb ~ub ~step ~proc:p)
      done;
      !ok)

(* Affinity: the compiler's lowered loops against the reference model.
   Each case compiles and runs a [c$doacross] whose iterations record
   [dsm_myproc()], then checks that every iteration ran exactly once, on
   the processor [Affinity_ref.iters] names. The affinity element stays
   inside the array for every iteration. A [*] dimension cannot be an
   array's only one, so that case uses [a(30, P)] distributed [*] by [block]
   with the second subscript pinned to column 2: its owner, processor 1,
   runs every iteration, since the [*] dimension's single owner index is
   0. *)

type aff_mode = Regular | Reshaped | Redistributed

let aff_extent = 30

(* the loop range keeping [s*i + c] inside [1, aff_extent], from i = 1 *)
let aff_range ~s ~c =
  if s = 0 then (1, 12)
  else (max 1 (Intmath.cdiv (1 - c) s), Intmath.fdiv (aff_extent - c) s)

let aff_source mode kind ~nprocs ~s ~c ~step =
  let lb, ub = aff_range ~s ~c in
  let star = kind = Kind.Star in
  let k = Kind.to_string kind ^ if star then ", block" else "" in
  let directive =
    match mode with
    | Regular -> Printf.sprintf "c$distribute a(%s)" k
    | Reshaped -> Printf.sprintf "c$distribute_reshape a(%s)" k
    | Redistributed ->
        Printf.sprintf "c$distribute a(%s)"
          (if star then "block, *" else if kind = Kind.Block then "cyclic" else "block")
  in
  let redist =
    match mode with
    | Redistributed -> Printf.sprintf "c$redistribute a(%s)\n" k
    | Regular | Reshaped -> ""
  in
  let column = if star then ", 2" else "" in
  String.concat "\n"
    [
      "      program aff";
      "      integer i, p";
      Printf.sprintf "      integer who(%d, %d)" ub nprocs;
      (if star then Printf.sprintf "      real*8 a(%d, %d)" aff_extent nprocs
       else Printf.sprintf "      real*8 a(%d)" aff_extent);
      directive;
      Printf.sprintf "      do p = 1, %d" nprocs;
      Printf.sprintf "        do i = 1, %d" ub;
      "          who(i, p) = 0";
      "        enddo";
      "      enddo";
      redist
      ^ Printf.sprintf "c$doacross local(i) affinity(i) = data(a(%d*i + %d%s))" s c
          column;
      Printf.sprintf "      do i = %d, %d, %d" lb ub step;
      "        who(i, dsm_myproc() + 1) = who(i, dsm_myproc() + 1) + 1";
      "      enddo";
      Printf.sprintf "      do i = 1, %d" ub;
      Printf.sprintf "        do p = 1, %d" nprocs;
      "          if (who(i, p) .ne. 0) then";
      "            print *, i, p - 1, who(i, p)";
      "          endif";
      "        enddo";
      "      enddo";
      "      end";
      "";
    ]

(* (iteration, processor, times run) as the lowered program reports it *)
let aff_observed src ~nprocs =
  match Ddsm_core.Ddsm.run_source ~nprocs src with
  | Error e -> Alcotest.failf "%s\n%s" e src
  | Ok o ->
      List.map
        (fun line -> Scanf.sscanf line " %d %d %d" (fun i p n -> (i, p, n)))
        o.Ddsm_exec.Engine.prints

let aff_expected kind ~nprocs ~s ~c ~step =
  let lb, ub = aff_range ~s ~c in
  let dm =
    Dim_map.make ~extent:aff_extent
      ~procs:(if kind = Kind.Star then 1 else nprocs)
      kind
  in
  (* the processor grid numbers the first dimension fastest; a [*] case's
     second dimension adds its pinned column's owner times 1 *)
  let column_owner =
    if kind = Kind.Star then
      Dim_map.owner (Dim_map.make ~extent:nprocs ~procs:nprocs Kind.Block) 1
    else 0
  in
  List.concat_map
    (fun p ->
      List.map
        (fun i -> (i, p + column_owner, 1))
        (Affinity_ref.iters dm { Affinity_ref.s; c = c - 1 } ~lb ~ub ~step ~proc:p))
    (List.init dm.Dim_map.procs Fun.id)
  |> List.sort compare

let test_affinity_lowered mode () =
  let bad = ref [] in
  List.iter
    (fun nprocs ->
      List.iter
        (fun kind ->
          List.iter
            (fun (s, c, step) ->
              let src = aff_source mode kind ~nprocs ~s ~c ~step in
              let got = aff_observed src ~nprocs in
              let want = aff_expected kind ~nprocs ~s ~c ~step in
              if got <> want then
                bad :=
                  Printf.sprintf "P=%d %s s=%d c=%d step=%d" nprocs
                    (Kind.to_string kind) s c step
                  :: !bad)
            [ (0, 7, 1); (0, 30, 2); (1, 0, 1); (1, 3, 2); (1, -2, 3); (2, 1, 1); (2, -3, 2) ])
        [ Kind.Block; Kind.Cyclic; Kind.Cyclic_k 3; Kind.Star ])
    [ 3; 4; 8 ];
  Alcotest.(check (list string)) "disagreements" [] (List.rev !bad)

(* ------------------------------------------------------------------ *)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests)

let () =
  Alcotest.run "dist"
    [
      ( "intmath",
        [
          Alcotest.test_case "floor/ceil division" `Quick test_fdiv;
          Alcotest.test_case "extended gcd" `Quick test_egcd;
          Alcotest.test_case "align_up" `Quick test_align_up;
          Alcotest.test_case "ap_intersect brute force" `Quick test_ap_intersect_brute;
          Alcotest.test_case "min_int edge cases" `Quick test_intmath_min_int;
          Alcotest.test_case "ap_intersect large steps" `Quick
            test_ap_intersect_large_steps;
        ] );
      qsuite "intmath.props" [ prop_ap_intersect_oracle ];
      ( "kind",
        [ Alcotest.test_case "string roundtrip & parsing" `Quick test_kind_strings ] );
      ( "dim_map",
        [
          Alcotest.test_case "Table 1 block" `Quick test_table1_block;
          Alcotest.test_case "Table 1 cyclic" `Quick test_table1_cyclic;
          Alcotest.test_case "Table 1 cyclic(k)" `Quick test_table1_cyclic_k;
          Alcotest.test_case "cyclic(k) ragged tail" `Quick test_cyclic_k_ragged;
          Alcotest.test_case "star dimension" `Quick test_star;
        ] );
      qsuite "dim_map.props"
        [ prop_roundtrip; prop_portion_partition; prop_ranges_sorted_maximal ];
      ( "grid",
        [
          Alcotest.test_case "basic assignment & onto" `Quick test_grid_basics;
          Alcotest.test_case "exact product" `Quick test_grid_exact_product;
        ] );
      qsuite "grid.props" [ prop_grid_linear_roundtrip ];
      ( "layout",
        [
          Alcotest.test_case "(*,block) contiguous portions" `Quick test_layout_column_dist;
          Alcotest.test_case "(block,*) fragmented portions" `Quick test_layout_row_dist;
          Alcotest.test_case "(block,block) grid" `Quick test_layout_block_block;
        ] );
      qsuite "layout.props"
        [ prop_layout_roundtrip; prop_layout_ranges_cover; prop_layout_ranges_owned ];
      ( "affinity",
        [
          Alcotest.test_case "block, identity affinity" `Quick test_affinity_block_simple;
          Alcotest.test_case "cyclic, Figure 2 form" `Quick test_affinity_cyclic_simple;
          Alcotest.test_case "zero stride" `Quick test_affinity_zero_stride;
          Alcotest.test_case "affine offset" `Quick test_affinity_offset;
          Alcotest.test_case "lowered loops, regular arrays" `Quick
            (test_affinity_lowered Regular);
          Alcotest.test_case "lowered loops, reshaped arrays" `Quick
            (test_affinity_lowered Reshaped);
          Alcotest.test_case "lowered loops, redistributed arrays" `Quick
            (test_affinity_lowered Redistributed);
        ] );
      qsuite "affinity.props"
        [ prop_affinity_matches_brute_force; prop_affinity_disjoint_cover ];
    ]

(* End-to-end tests of the VM: correctness of compiled programs, semantic
   equivalence across optimization levels, processor counts and placement
   policies, subroutine linkage, runtime error detection. *)

open Ddsm_ir
open Ddsm_frontend
open Ddsm_sema
open Ddsm_transform
open Ddsm_exec
module Config = Ddsm_machine.Config
module Pagetable = Ddsm_machine.Pagetable
module Rt = Ddsm_runtime.Rt
module Objfile = Ddsm_linker.Objfile

let check_bool = Alcotest.(check bool)

let has_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0
let check_int = Alcotest.(check int)

let build ?(flags = Flags.all_on) ?(allow_formal_dists = false) src =
  match Parser.parse_file ~fname:"t.pf" src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok f -> (
      match Sema.analyse_file ~allow_formal_dists f with
      | Error es -> Alcotest.failf "sema: %s" (String.concat "; " es)
      | Ok envs ->
          let routines =
            List.map
              (fun (env : Sema.env) ->
                (env.Sema.routine.Decl.rname, Objfile.lower flags env))
              envs
          in
          let main =
            List.find
              (fun (env : Sema.env) -> env.Sema.routine.Decl.rkind = Decl.Program)
              envs
          in
          Prog.create routines ~main:main.Sema.routine.Decl.rname)

let run ?flags ?allow_formal_dists ?(nprocs = 4)
    ?(policy = Pagetable.First_touch) ?(checks = true) src =
  let prog = build ?flags ?allow_formal_dists src in
  let cfg = Config.scaled ~nprocs () in
  let rt = Rt.create cfg ~policy ~heap_words:(1 lsl 20) () in
  (Result.map_error Ddsm_check.Diag.to_string
     (Engine.run prog ~rt ~checks ~bounds:true ()),
   rt)

let run_ok ?flags ?allow_formal_dists ?nprocs ?policy ?checks src =
  match fst (run ?flags ?allow_formal_dists ?nprocs ?policy ?checks src) with
  | Ok o -> o
  | Error m -> Alcotest.failf "runtime error: %s" m

let prints_of o = String.concat "\n" o.Engine.prints

(* ------------------------------------------------------------------ *)
(* Basic correctness *)

let test_scalar_arithmetic () =
  let o =
    run_ok
      {|
      program p
      integer i, j
      real*8 x
      i = 7 / 2
      j = mod(17, 5)
      x = sqrt(9.0) + 2 ** 3 + max(1, 4) + min(2.5, 1.5)
      print *, i, j, x
      end
|}
  in
  Alcotest.(check string) "values" "3 2 16.5" (prints_of o)

let test_control_flow () =
  let o =
    run_ok
      {|
      program p
      integer i, acc
      acc = 0
      do i = 10, 1, -2
        acc = acc + i
      enddo
      if (acc .gt. 100) then
        print *, 'big'
      elseif (acc .eq. 30) then
        print *, 'exact', acc
      else
        print *, 'small'
      endif
      end
|}
  in
  Alcotest.(check string) "negative step + elseif" "exact 30" (prints_of o)

let test_array_roundtrip () =
  let o =
    run_ok
      {|
      program p
      integer n, i, j
      parameter (n = 8)
      real*8 a(n, n), s
      do j = 1, n
        do i = 1, n
          a(i, j) = i * 100 + j
        enddo
      enddo
      s = 0.0
      do j = 1, n
        s = s + a(j, j)
      enddo
      print *, s
      end
|}
  in
  (* sum of i*100+i for i=1..8 = 101*36 *)
  Alcotest.(check string) "diagonal sum" "3636" (prints_of o)

let stencil_src =
  {|
      program p
      integer n, i, iter
      parameter (n = 60)
      real*8 a(n), b(n), s
c$distribute_reshape a(block), b(block)
      integer k
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = i
        b(i) = n - i
      enddo
      do iter = 1, 3
c$doacross local(i) affinity(i) = data(a(i))
        do i = 2, n-1
          a(i) = (b(i-1) + b(i) + b(i+1)) / 3.0 + a(i)
        enddo
      enddo
      s = 0.0
      do k = 1, n
        s = s + a(k) * k
      enddo
      print *, s
      end
|}

let test_equivalence_across_configs () =
  (* the same program must produce identical results under every
     optimization level, processor count, and placement policy *)
  let reference = prints_of (run_ok ~flags:Flags.all_on ~nprocs:4 stencil_src) in
  List.iter
    (fun (flags, nprocs, policy) ->
      let o = run_ok ~flags ~nprocs ~policy stencil_src in
      Alcotest.(check string)
        (Printf.sprintf "nprocs=%d" nprocs)
        reference (prints_of o))
    [
      (Flags.all_off, 4, Pagetable.First_touch);
      (Flags.tile_peel, 4, Pagetable.First_touch);
      (Flags.tile_peel_hoist, 4, Pagetable.First_touch);
      ({ Flags.all_on with Flags.peel = false }, 4, Pagetable.First_touch);
      ({ Flags.all_on with Flags.interchange = false }, 4, Pagetable.First_touch);
      (Flags.all_on, 1, Pagetable.First_touch);
      (Flags.all_on, 2, Pagetable.Round_robin);
      (Flags.all_on, 7, Pagetable.First_touch);
      (Flags.all_on, 8, Pagetable.Round_robin);
      (Flags.all_off, 3, Pagetable.Round_robin);
    ]

let transpose_src =
  {|
      program p
      integer n, i, j
      parameter (n = 24)
      real*8 a(n, n), b(n, n), s
c$distribute_reshape a(*, block), b(block, *)
      do j = 1, n
        do i = 1, n
          b(i, j) = i * 1000 + j
        enddo
      enddo
c$doacross local(i, j)
      do i = 1, n
        do j = 1, n
          a(j, i) = b(i, j)
        enddo
      enddo
      s = 0.0
      do j = 1, n
        do i = 1, n
          s = s + abs(a(i, j) - (j * 1000 + i))
        enddo
      enddo
      print *, s
      end
|}

let test_transpose_correct () =
  List.iter
    (fun (flags, nprocs) ->
      let o = run_ok ~flags ~nprocs transpose_src in
      Alcotest.(check string)
        (Printf.sprintf "transpose residual (np=%d)" nprocs)
        "0" (prints_of o))
    [ (Flags.all_on, 4); (Flags.all_off, 4); (Flags.all_on, 1); (Flags.all_on, 6) ]

let conv2_src =
  {|
      program p
      integer n, i, j
      parameter (n = 20)
      real*8 a(n, n), b(n, n), s
c$distribute_reshape a(block, block), b(block, block)
      do j = 1, n
        do i = 1, n
          b(i, j) = mod(i * 7 + j * 3, 11)
          a(i, j) = 0.0
        enddo
      enddo
c$doacross nest(j, i) local(i, j) affinity(j, i) = data(a(i, j))
      do j = 2, n-1
        do i = 2, n-1
          a(i,j) = (b(i-1,j) + b(i,j-1) + b(i,j) + b(i,j+1) + b(i+1,j)) / 5.0
        enddo
      enddo
      s = 0.0
      do j = 1, n
        do i = 1, n
          s = s + a(i, j) * (i + 2 * j)
        enddo
      enddo
      print *, s
      end
|}

let test_conv2_all_configs_agree () =
  let reference = prints_of (run_ok ~flags:Flags.all_off ~nprocs:1 conv2_src) in
  List.iter
    (fun (flags, nprocs) ->
      let o = run_ok ~flags ~nprocs conv2_src in
      Alcotest.(check string)
        (Printf.sprintf "2-level conv np=%d" nprocs)
        reference (prints_of o))
    [
      (Flags.all_on, 1); (Flags.all_on, 2); (Flags.all_on, 4); (Flags.all_on, 8);
      (Flags.all_off, 4); (Flags.tile_peel, 6);
    ]

let test_cyclic_dists_agree () =
  let src =
    {|
      program p
      integer n, i
      parameter (n = 37)
      real*8 a(n), s
c$distribute_reshape a(cyclic(3))
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = i * i
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i)
      enddo
      print *, s
      end
|}
  in
  let r1 = prints_of (run_ok ~flags:Flags.all_off ~nprocs:1 src) in
  List.iter
    (fun nprocs ->
      Alcotest.(check string)
        (Printf.sprintf "cyclic(3) np=%d" nprocs)
        r1
        (prints_of (run_ok ~nprocs src)))
    [ 2; 4; 5 ]

let test_regular_dist_and_redistribute () =
  let src =
    {|
      program p
      integer n, i
      parameter (n = 64)
      real*8 a(n), s
c$distribute a(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = i
      enddo
c$redistribute a(cyclic)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = a(i) + 1
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i)
      enddo
      print *, s
      end
|}
  in
  let o = run_ok ~nprocs:4 src in
  (* sum (i+1) for 1..64 = 2080+64 = 2144... sum i = 2080, +64 -> 2144 *)
  Alcotest.(check string) "redistribute result" "2144" (prints_of o)

(* ------------------------------------------------------------------ *)
(* Subroutines *)

let portion_src =
  {|
      subroutine scale5(x, f)
      real*8 x(5), f
      integer k
      do k = 1, 5
        x(k) = x(k) * f
      enddo
      return
      end

      program p
      integer i
      real*8 a(1000), f, s
c$distribute_reshape a(cyclic(5))
      do i = 1, 1000
        a(i) = 1.0
      enddo
      f = 2.0
      do i = 1, 1000, 5
        call scale5(a(i), f)
      enddo
      s = 0.0
      do i = 1, 1000
        s = s + a(i)
      enddo
      print *, s
      end
|}

let test_portion_passing () =
  (* the paper's §3.2.1 example: each call receives one 5-element portion *)
  let o = run_ok ~nprocs:4 portion_src in
  Alcotest.(check string) "all elements scaled" "2000" (prints_of o)

let test_portion_overflow_detected () =
  (* formal declared larger than the portion: the §6 runtime check fires *)
  let src =
    {|
      subroutine bad(x)
      real*8 x(6)
      integer k
      do k = 1, 6
        x(k) = 0.0
      enddo
      end

      program p
      real*8 a(1000)
c$distribute_reshape a(cyclic(5))
      integer i
      do i = 1, 1000
        a(i) = 1.0
      enddo
      call bad(a(1))
      end
|}
  in
  (match fst (run ~nprocs:4 src) with
  | Error m ->
      check_bool "message mentions the portion" true
        (String.length m > 0 && has_sub m "portion")
  | Ok _ -> Alcotest.fail "expected a runtime argument-check error");
  (* with checks disabled the (incorrect) program runs to completion *)
  match fst (run ~nprocs:4 ~checks:false src) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "checks off should not flag: %s" m

let test_whole_plain_array_passing () =
  let src =
    {|
      subroutine fill(x, m, v)
      integer m
      real*8 x(m, m), v
      integer i, j
      do j = 1, m
        do i = 1, m
          x(i, j) = v + i + j
        enddo
      enddo
      end

      program p
      integer n
      parameter (n = 6)
      real*8 a(n, n), s
      integer i, j
      call fill(a, n, 100.0)
      s = 0.0
      do j = 1, n
        do i = 1, n
          s = s + a(i, j)
        enddo
      enddo
      print *, s
      end
|}
  in
  (* sum over 6x6 of 100+i+j = 3600 + 2*6*21 = 3852 *)
  Alcotest.(check string) "adjustable formal" "3852" (prints_of (run_ok src))

let test_whole_reshaped_with_propagated_clone () =
  (* simulate what the pre-linker produces: the callee carries the
     propagated distribute_reshape on its formal *)
  let src =
    {|
      subroutine init(x, n)
      integer n
      real*8 x(64, 64)
c$distribute_reshape x(block, block)
      integer i, j
c$doacross nest(j, i) local(i, j) affinity(j, i) = data(x(i, j))
      do j = 1, 64
        do i = 1, 64
          x(i, j) = i + j
        enddo
      enddo
      end

      program p
      real*8 a(64, 64), s
c$distribute_reshape a(block, block)
      integer i, j, n
      n = 64
      call init(a, n)
      s = 0.0
      do j = 1, 64
        do i = 1, 64
          s = s + a(i, j)
        enddo
      enddo
      print *, s
      end
|}
  in
  let o = run_ok ~allow_formal_dists:true ~nprocs:4 src in
  (* sum of i+j over 64x64 = 2 * 64 * (64*65/2) = 266240 *)
  Alcotest.(check string) "clone-style whole pass" "266240" (prints_of o)

let test_whole_reshaped_shape_mismatch_detected () =
  let src =
    {|
      subroutine touch(x)
      real*8 x(32, 64)
c$distribute_reshape x(block, block)
      x(1, 1) = 0.0
      end

      program p
      real*8 a(64, 64)
c$distribute_reshape a(block, block)
      a(1, 1) = 1.0
      call touch(a)
      end
|}
  in
  match fst (run ~allow_formal_dists:true ~nprocs:4 src) with
  | Error m ->
      check_bool "mentions exact match" true (has_sub m "match")
  | Ok _ -> Alcotest.fail "expected shape-mismatch runtime error"

(* ------------------------------------------------------------------ *)
(* dsm intrinsics & misc *)

let test_whole_regular_array_passing () =
  (* a regular-distributed array passed whole is a plain view in the callee
     (no cloning needed; placement is unaffected) *)
  let src =
    {|
      subroutine sum2(x, n, r)
      integer n
      real*8 x(n), r
      integer k
      r = 0.0
      do k = 1, n
        r = r + x(k)
      enddo
      print *, r
      end

      program p
      integer n, i
      parameter (n = 96)
      real*8 a(n), r
c$distribute a(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = 2.0
      enddo
      call sum2(a, n, r)
      end
|}
  in
  Alcotest.(check string) "sum via plain view" "192" (prints_of (run_ok ~nprocs:4 src))

let test_cyclic_k_stencil () =
  (* cyclic(5) with neighbours crossing chunk boundaries exercises the
     chunked affinity schedule plus general Table 1 addressing *)
  let src =
    {|
      program p
      integer n, i
      parameter (n = 83)
      real*8 a(n), b(n), s
c$distribute_reshape a(cyclic(5)), b(cyclic(5))
      do i = 1, n
        b(i) = mod(i * 11, 19)
        a(i) = 0.0
      enddo
c$doacross local(i) affinity(i) = data(a(i))
      do i = 2, n-1
        a(i) = b(i-1) + b(i) * 2.0 + b(i+1)
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i) * i
      enddo
      print *, s
      end
|}
  in
  let reference = prints_of (run_ok ~flags:Flags.all_off ~nprocs:1 src) in
  List.iter
    (fun nprocs ->
      Alcotest.(check string)
        (Printf.sprintf "cyclic(5) stencil np=%d" nprocs)
        reference
        (prints_of (run_ok ~nprocs src)))
    [ 2; 4; 7 ]

let test_affinity_on_star_dim () =
  (* an affinity variable whose subscript lands on a '*' dimension is a
     vacuous constraint: that loop runs in full on every worker while the
     other nest variable stays distributed *)
  let src =
    {|
      program p
      integer n, i, j
      parameter (n = 24)
      real*8 a(n, n), s
c$distribute_reshape a(*, block)
c$doacross nest(i, j) local(i, j) affinity(i, j) = data(a(i, j))
      do i = 1, n
        do j = 1, n
          a(i, j) = i + j * 100
        enddo
      enddo
      s = 0.0
      do j = 1, n
        do i = 1, n
          s = s + a(i, j)
        enddo
      enddo
      print *, s
      end
|}
  in
  let reference = prints_of (run_ok ~flags:Flags.all_off ~nprocs:1 src) in
  List.iter
    (fun nprocs ->
      Alcotest.(check string)
        (Printf.sprintf "star-affinity np=%d" nprocs)
        reference
        (prints_of (run_ok ~nprocs src)))
    [ 1; 4; 8 ]

let test_affinity_constant_sub_pins_owner () =
  (* regression: data(a(i, 1)) with a column distribution pins all
     iterations to the owner of column 1 — without the pin every worker
     would duplicate the loop and corrupt the result *)
  let src =
    {|
      program p
      integer n, i, j
      parameter (n = 24)
      real*8 a(n, n), s
c$distribute a(*, block)
      do j = 1, n
        do i = 1, n
          a(i, j) = 1.0
        enddo
      enddo
c$doacross local(i, j) affinity(i) = data(a(i, 1))
      do i = 1, n
        do j = 2, n
          a(i, j) = a(i, j) + a(i, j-1)
        enddo
      enddo
      s = 0.0
      do j = 1, n
        s = s + a(1, j)
      enddo
      print *, s
      end
|}
  in
  let reference = prints_of (run_ok ~flags:Flags.all_off ~nprocs:1 src) in
  List.iter
    (fun nprocs ->
      Alcotest.(check string)
        (Printf.sprintf "pinned nest np=%d" nprocs)
        reference
        (prints_of (run_ok ~nprocs src)))
    [ 2; 4; 8 ]

let test_redistribute_2d_phase_change () =
  (* regression: after c$redistribute changes WHICH dimension is
     distributed, the affinity schedules must decompose the worker grid at
     run time (ADI-style phase change, paper §3.3) *)
  let src =
    {|
      program adi
      integer n, i, j, it
      parameter (n = 16)
      real*8 a(n, n)
c$distribute a(*, block)
      do j = 1, n
        do i = 1, n
          a(i, j) = i + j
        enddo
      enddo
c$doacross local(i, j) affinity(j) = data(a(1, j))
      do j = 1, n
        do i = 2, n
          a(i, j) = a(i, j) + a(i-1, j) * 0.5
        enddo
      enddo
c$redistribute a(block, *)
c$doacross local(i, j) affinity(i) = data(a(i, 1))
      do i = 1, n
        do j = 2, n
          a(i, j) = a(i, j) + a(i, j-1) * 0.5
        enddo
      enddo
      print *, a(n, n)
      end
|}
  in
  let reference = prints_of (run_ok ~flags:Flags.all_off ~nprocs:1 src) in
  List.iter
    (fun nprocs ->
      Alcotest.(check string)
        (Printf.sprintf "2d redistribute np=%d" nprocs)
        reference
        (prints_of (run_ok ~nprocs src)))
    [ 2; 4; 8; 16 ]

let test_dsm_intrinsics () =
  let o =
    run_ok ~nprocs:4
      {|
      program p
      integer n
      parameter (n = 64)
      real*8 a(n)
c$distribute a(block)
      integer b, np
      np = dsm_numprocs(a, 1)
      b = dsm_chunksize(a, 1)
      print *, np, b, dsm_owner(a, 1, 17), dsm_nprocs()
      end
|}
  in
  Alcotest.(check string) "inquiries" "4 16 1 4" (prints_of o);
  (* distribution kind tracks redistribution *)
  let o =
    run_ok ~nprocs:4
      {|
      program p
      real*8 a(64)
c$distribute a(block)
      integer k1, k2
      k1 = dsm_distribution(a, 1)
c$redistribute a(cyclic)
      k2 = dsm_distribution(a, 1)
      print *, k1, k2, dsm_isreshaped(a)
      end
|}
  in
  Alcotest.(check string) "kind codes across redistribute" "1 2 0" (prints_of o)

let test_bounds_check () =
  let src =
    {|
      program p
      integer i
      real*8 a(10)
      i = 11
      a(i) = 1.0
      end
|}
  in
  match fst (run src) with
  | Error m ->
      check_bool "bounds message" true (String.length m > 0)
  | Ok _ -> Alcotest.fail "expected bounds error"

(* The out-of-bounds report names the subscript value already computed:
   an indirect subscript is not loaded a second time for the message. *)
let test_bounds_indirect_no_reload () =
  let src =
    {|
      program p
      integer i, idx(4)
      real*8 a(10), s
      do i = 1, 4
        idx(i) = i
      enddo
      idx(4) = 12
      s = 0.0
      do i = 1, 4
        s = s + a(idx(i))
      enddo
      end
|}
  in
  match run ~flags:Flags.all_off ~nprocs:1 src with
  | Ok _, _ -> Alcotest.fail "expected bounds error"
  | Error m, rt ->
      check_bool "reports subscript 12" true
        (has_sub m "subscript 12 out of bounds");
      (* idx(1..3) and a(idx(1..3)), then idx(4): seven loads *)
      let loads =
        List.assoc "loads"
          (Ddsm_machine.Counters.to_assoc
             (Ddsm_machine.Memsys.total_counters rt.Rt.mem))
      in
      Alcotest.(check int) "loads made" 7 loads

(* the loop touches no memory, so the budget is caught by the loop's own
   check, not by the one after an access; either way it is marked once *)
let test_cycle_limit () =
  let prog =
    build {|
      program p
      integer i
      real*8 x
      x = 0.0
      do i = 1, 100000000
        x = x + 1.0
      enddo
      end
|}
  in
  let cfg = Config.scaled ~nprocs:1 () in
  let rt = Rt.create cfg ~policy:Pagetable.First_touch ~heap_words:65536 () in
  let budget_marks = ref 0 in
  let observe = function
    | Rt.Mark { mark = Rt.Cycle_budget; _ } -> incr budget_marks
    | _ -> ()
  in
  match Engine.run prog ~rt ~max_cycles:100_000 ~observers:[ observe ] () with
  | Error d -> (
      check_int "one cycle-budget mark" 1 !budget_marks;
      match d.Ddsm_check.Diag.reason with
      | Ddsm_check.Diag.Cycle_budget { limit } ->
          check_int "budget echoed" 100_000 limit
      | _ -> Alcotest.failf "wrong reason: %s" (Ddsm_check.Diag.headline d))
  | Ok _ -> Alcotest.fail "expected cycle-limit error"

let test_cycles_monotone_with_work () =
  let mk n =
    Printf.sprintf
      {|
      program p
      integer i
      real*8 a(%d)
      do i = 1, %d
        a(i) = i
      enddo
      end
|}
      n n
  in
  let c1 = (run_ok ~nprocs:1 (mk 64)).Engine.cycles in
  let c2 = (run_ok ~nprocs:1 (mk 512)).Engine.cycles in
  check_bool "more work costs more cycles" true (c2 > c1 * 4)

let test_parallel_speedup_exists () =
  (* embarrassingly parallel reshaped update: 8 procs must beat 1 proc *)
  let src =
    {|
      program p
      integer n, i, it
      parameter (n = 512)
      real*8 a(n)
c$distribute_reshape a(block)
      do it = 1, 4
c$doacross local(i) affinity(i) = data(a(i))
        do i = 1, n
          a(i) = a(i) * 1.5 + 2.0
        enddo
      enddo
      end
|}
  in
  let c1 = (run_ok ~flags:Flags.all_on ~nprocs:1 src).Engine.cycles in
  let c8 = (run_ok ~flags:Flags.all_on ~nprocs:8 src).Engine.cycles in
  check_bool
    (Printf.sprintf "speedup (1p=%d, 8p=%d)" c1 c8)
    true
    (float_of_int c1 /. float_of_int c8 > 3.0)

let test_optimization_reduces_cycles () =
  (* Table 2's dynamics: unoptimized reshaped code is much slower *)
  let src = stencil_src in
  let on = (run_ok ~flags:Flags.all_on ~nprocs:1 src).Engine.cycles in
  let off = (run_ok ~flags:Flags.all_off ~nprocs:1 src).Engine.cycles in
  check_bool
    (Printf.sprintf "all_on=%d all_off=%d" on off)
    true
    (float_of_int off /. float_of_int on > 1.3)

(* an add inside a nested subscript is discounted once, by the subscript
   that charges it: spelling the subscript through a temporary costs the
   same *)
let test_nested_address_discount () =
  let cycles subscript =
    (run_ok ~flags:{ Flags.all_on with Flags.inspector = false } ~nprocs:1
       (Printf.sprintf
          {|
      program p
      integer i, j, ib(101)
      real*8 a(101), x
      do i = 1, 101
        ib(i) = i
        a(i) = 1.0
      enddo
      x = 0.0
      do i = 1, 100
        j = i + 1
        x = x + a(ib(%s))
      enddo
      print *, x
      end
|}
          subscript))
      .Engine.cycles
  in
  check_int "a(ib(i + 1)) costs what a(ib(j)) costs" (cycles "j") (cycles "i + 1")

let test_doacross_in_serial_loop () =
  (* regression: hoisting must not move myp$/np$ expressions of the
     scheduling prologue out of an enclosing serial loop (across the Par
     boundary, where the reserved variables are unbound) *)
  let src =
    {|
      program p
      integer n, i, it
      parameter (n = 97)
      real*8 a(n), s
      do it = 1, 3
c$doacross local(i)
        do i = 1, n
          a(i) = a(i) + 1.0
        enddo
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i)
      enddo
      print *, s
      end
|}
  in
  List.iter
    (fun (flags, nprocs) ->
      Alcotest.(check string)
        (Printf.sprintf "np=%d all iterations execute" nprocs)
        "291"
        (prints_of (run_ok ~flags ~nprocs src)))
    [ (Flags.all_on, 8); (Flags.all_on, 3); (Flags.all_off, 8) ]

let test_skewed_loop_correct () =
  (* §7.1 skewing must preserve semantics for symbolic offsets *)
  let src =
    {|
      program p
      integer n, i, k
      parameter (n = 60)
      real*8 a(n), s
c$distribute_reshape a(block)
      do i = 1, n
        a(i) = 0.0
      enddo
      k = 4
      do i = 1, n - 2*k
        a(i + 2*k) = i
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i) * i
      enddo
      print *, s
      end
|}
  in
  let reference = prints_of (run_ok ~flags:Flags.all_off ~nprocs:1 src) in
  List.iter
    (fun nprocs ->
      Alcotest.(check string)
        (Printf.sprintf "skewed np=%d" nprocs)
        reference
        (prints_of (run_ok ~flags:Flags.all_on ~nprocs src)))
    [ 1; 4; 8 ]

let test_onto_clause () =
  (* onto(2,1) forces an 8-proc grid to 4x2 instead of the default 
     even split *)
  let src =
    {|
      program p
      integer i, j
      real*8 a(32, 32), s
c$distribute_reshape a(block, block) onto(2, 1)
      integer p1, p2
      p1 = dsm_numprocs(a, 1)
      p2 = dsm_numprocs(a, 2)
c$doacross nest(j, i) local(i, j) affinity(j, i) = data(a(i, j))
      do j = 1, 32
        do i = 1, 32
          a(i, j) = i * j
        enddo
      enddo
      s = 0.0
      do j = 1, 32
        do i = 1, 32
          s = s + a(i, j)
        enddo
      enddo
      print *, p1, p2, s
      end
|}
  in
  let o = run_ok ~nprocs:8 src in
  (* sum(i*j) = (32*33/2)^2 = 278784 *)
  Alcotest.(check string) "grid 4x2, correct sum" "4 2 278784" (prints_of o)

let test_interleave_schedtype () =
  let src =
    {|
      program p
      integer n, i
      parameter (n = 97)
      real*8 a(n), s
c$doacross local(i) schedtype(interleave)
      do i = 1, n
        a(i) = i
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i)
      enddo
      print *, s
      end
|}
  in
  List.iter
    (fun nprocs ->
      Alcotest.(check string)
        (Printf.sprintf "interleave np=%d" nprocs)
        "4753"
        (prints_of (run_ok ~nprocs src)))
    [ 1; 3; 8 ]

let test_interleave_chunked () =
  let src =
    {|
      program p
      integer n, i
      parameter (n = 101)
      real*8 a(n), s
c$doacross local(i) schedtype(interleave(4))
      do i = 1, n
        a(i) = i * 2
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i)
      enddo
      print *, s
      end
|}
  in
  List.iter
    (fun nprocs ->
      Alcotest.(check string)
        (Printf.sprintf "interleave(4) np=%d" nprocs)
        "10302"
        (prints_of (run_ok ~nprocs src)))
    [ 1; 4; 6 ]

let test_dsm_portion_bounds () =
  (* dsm_this_lo/hi inside a parallel region describe the worker's portion *)
  let src =
    {|
      program p
      integer n, i
      parameter (n = 64)
      real*8 a(n), s
c$distribute_reshape a(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = dsm_this_hi(a, 1) - dsm_this_lo(a, 1) + 1
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i)
      enddo
      print *, s
      end
|}
  in
  (* with 4 procs, every element records its 16-wide portion: sum = 64*16 *)
  Alcotest.(check string) "portion widths" "1024" (prints_of (run_ok ~nprocs:4 src))

let test_scalar_args_by_value () =
  (* documented deviation from Fortran: scalar arguments pass by value, so
     assignments to a scalar formal do not reach the caller *)
  let src =
    {|
      subroutine bump(x)
      real*8 x
      x = x + 1.0
      end

      program p
      real*8 v
      v = 5.0
      call bump(v)
      print *, v
      end
|}
  in
  Alcotest.(check string) "caller value unchanged" "5" (prints_of (run_ok src))

let test_heap_exhaustion_reported () =
  let prog =
    build {|
      program p
      real*8 a(100000)
      a(1) = 1.0
      end
|}
  in
  let cfg = Config.scaled ~nprocs:1 () in
  let rt = Rt.create cfg ~policy:Pagetable.First_touch ~heap_words:1024 () in
  match Engine.run prog ~rt () with
  | Error d ->
      check_bool "reported as a user resource error, not internal" false
        (Ddsm_check.Diag.is_internal d);
      check_bool "message" true
        (String.length (Ddsm_check.Diag.headline d) > 0)
  | Ok _ -> Alcotest.fail "expected out-of-memory"

let test_counters_populated () =
  let o = run_ok ~nprocs:4 transpose_src in
  let c = o.Engine.counters in
  check_bool "accesses recorded" true (Ddsm_machine.Counters.accesses c > 1000);
  check_bool "l2 misses happen" true (c.Ddsm_machine.Counters.l2_misses > 0)

(* The scheduling decisions themselves, not just the cycles they produce:
   how many accesses parked on the run queue, how many continued directly
   (DESIGN.md §8) and how many regions forked. A run-queue change that
   keeps every cycle but reorders a tie, or loses a fast continue, moves
   these. Values taken with the binary-heap scheduler. *)
(* ------------------------------------------------------------------ *)
(* Barriers and equivalence at run time *)

(* n = P iterations: each writes its own element, waits at the barrier,
   then reads its right neighbour's (wrapping). Only a barrier that holds
   every worker until all have written gives sum(a) = 10 * n(n+1)/2. *)
let exchange_src ?(barrier = "c$barrier") n =
  Printf.sprintf
    {|
      program xch
      integer n, i
      parameter (n = %d)
      real*8 a(n), b(n), s
c$distribute a(block), b(block)
      do i = 1, n
        a(i) = 0.0
      enddo
c$doacross local(i)
      do i = 1, n
        a(i) = i * 10.0
%s
        b(i) = a(mod(i, n) + 1)
      enddo
      s = 0.0
      do i = 1, n
        s = s + b(i)
      enddo
      print *, 'sum:', s
      end
      subroutine sync
c$barrier
      end
|}
    n barrier

let test_barrier_exchange () =
  List.iter
    (fun (p, want) ->
      Alcotest.(check string)
        (Printf.sprintf "-p %d" p) want
        (prints_of (run_ok ~nprocs:p (exchange_src p)));
      (* a barrier reached through a call waits with the caller's region *)
      Alcotest.(check string)
        (Printf.sprintf "-p %d, barrier in a callee" p) want
        (prints_of (run_ok ~nprocs:p (exchange_src ~barrier:"        call sync" p))))
    [ (4, "sum: 100"); (8, "sum: 360"); (32, "sum: 5280") ]

let test_barrier_serial_and_nested () =
  (* a barrier in serial code and one in a region that runs inline (its
     routine is called from a doacross body) wait for no one *)
  let src =
    {|
      program p
      integer i
      real*8 a(8)
      common /c/ a
      do i = 1, 8
        a(i) = 0.0
      enddo
c$barrier
c$doacross local(i)
      do i = 1, 8
        call bump(i)
      enddo
      print *, a(1), a(8)
      end
      subroutine bump(k)
      integer k, j
      real*8 a(8)
      common /c/ a
c$doacross local(j)
      do j = 1, 1
        a(k) = a(k) + k
c$barrier
        a(k) = a(k) * 2.0
      enddo
      end
|}
  in
  List.iter
    (fun p ->
      Alcotest.(check string)
        (Printf.sprintf "-p %d" p) "2 16"
        (prints_of (run_ok ~nprocs:p src)))
    [ 1; 4 ]

let test_held_workers_in_deadlock_view () =
  (* the 5th wakeup is proc 3's, before the barrier: its siblings are
     held there when the run deadlocks *)
  let module Diag = Ddsm_check.Diag in
  let prog = build (exchange_src 4) in
  let rt =
    Rt.create (Config.scaled ~nprocs:4 ()) ~policy:Pagetable.First_touch
      ~heap_words:(1 lsl 20)
      ~fault:(Ddsm_check.Fault.make ~lose_wakeup:5 ())
      ()
  in
  match Engine.run prog ~rt () with
  | Ok _ -> Alcotest.fail "expected a deadlock"
  | Error d ->
      check_bool "deadlock" true (d.Diag.reason = Diag.Deadlock);
      let states =
        List.concat_map
          (fun (v : Diag.task_view) ->
            List.map
              (fun (c : Diag.task_view) ->
                Printf.sprintf "p%d %s" c.Diag.tv_proc
                  (match c.Diag.tv_state with
                  | Diag.Held -> "held"
                  | Diag.Blocked_mem -> "blocked-mem"
                  | Diag.Ready | Diag.Waiting _ | Diag.Done -> "other"))
              v.Diag.tv_children)
          d.Diag.blocked
      in
      Alcotest.(check (list string))
        "workers"
        [
          "p3 blocked-mem"; "p2 held"; "p1 held"; "p0 held";
        ]
        states

(* one storage, two names of different shapes: a store through either
   name is read back through the other, serially and from a doacross *)
let test_equivalence_at_run_time () =
  let src ty =
    Printf.sprintf
      {|
      program p
      integer i, j
      %s a(8), b(2, 4), s
      equivalence (a, b)
c$doacross local(i)
      do i = 1, 8
        a(i) = i * i
      enddo
      s = 0
      do j = 1, 4
        do i = 1, 2
          s = s + b(i, j) * (i + 2 * (j - 1))
        enddo
      enddo
      print *, b(1, 2), b(2, 4), s
c$doacross local(i, j)
      do j = 1, 4
        do i = 1, 2
          b(i, j) = b(i, j) + 1
        enddo
      enddo
      print *, a(5), a(8)
      end
|}
      ty
  in
  List.iter
    (fun (ty, want) ->
      List.iter
        (fun p ->
          Alcotest.(check string)
            (Printf.sprintf "%s -p %d" ty p) want
            (prints_of (run_ok ~nprocs:p (src ty))))
        [ 1; 4 ])
    [ ("real*8", "9 64 1296\n26 65"); ("integer", "9 64 1296\n26 65") ]

let test_schedule_pinned () =
  let example name =
    In_channel.with_open_bin
      (Filename.concat "../examples/programs" (name ^ ".pf"))
      In_channel.input_all
  in
  List.iter
    (fun (name, nprocs, machine, (parks, direct, forks)) ->
      let label = Printf.sprintf "%s -p %d" name nprocs in
      match Ddsm_core.Ddsm.run_source ~machine ~nprocs (example name) with
      | Error e -> Alcotest.failf "%s: %s" label e
      | Ok o ->
          check_int (label ^ " parks") parks o.Engine.parks;
          check_int (label ^ " direct continues") direct
            o.Engine.direct_continues;
          check_int (label ^ " forks") forks o.Engine.forks)
    Ddsm_core.Ddsm.
      [
        ("transpose", 8, Scaled 64, (338194, 254357, 4));
        ("lu", 8, Scaled 64, (238662, 105858, 5));
        ("conv", 8, Scaled 64, (160244, 163135, 1));
        ("transpose", 128, Origin2000, (655381, 100850, 4));
        ("lu", 128, Origin2000, (354988, 924, 5));
        ("conv", 128, Origin2000, (261729, 88578, 1));
      ]

(* The watchdog, tripped on purpose: with a stall limit of one scheduler
   step, transpose at 8 procs stops at the first two same-clock pops
   inside its first parallel region. Pins the headline and the blocked
   forest the engine reports. *)
let test_watchdog_stall_pinned () =
  let module Ddsm = Ddsm_core.Ddsm in
  let module Diag = Ddsm_check.Diag in
  let prog =
    match Ddsm.compile_path "../examples/programs/transpose.pf" with
    | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)
    | Ok obj -> (
        match Ddsm.link [ obj ] with
        | Ok (prog, _) -> prog
        | Error es -> Alcotest.failf "link: %s" (String.concat "; " es))
  in
  let rt = Ddsm.make_rt ~nprocs:8 () in
  match Ddsm.run prog ~rt ~stall_limit:1 () with
  | Ok _ -> Alcotest.fail "expected a watchdog stall"
  | Error d ->
      check_bool "watchdog reason" true
        (d.Diag.reason = Diag.Watchdog_stall { steps = 2 });
      Alcotest.(check string)
        "headline" "watchdog: scheduler made no progress in 2 steps (livelock?)"
        (Diag.headline d);
      let rec render indent (v : Diag.task_view) =
        Printf.sprintf "%sp%d c%d d%d %s" indent v.Diag.tv_proc v.Diag.tv_clock
          v.Diag.tv_depth
          (match v.Diag.tv_state with
          | Diag.Ready -> "ready"
          | Diag.Waiting n -> Printf.sprintf "waiting(%d)" n
          | Diag.Held -> "held"
          | Diag.Blocked_mem -> "blocked-mem"
          | Diag.Done -> "done")
        :: List.concat_map (render (indent ^ "  ")) v.Diag.tv_children
      in
      Alcotest.(check (list string))
        "blocked forest"
        [
          "p0 c1146121 d0 waiting(8)";
          "  p7 c1146326 d1 ready";
          "  p6 c1146350 d1 ready";
          "  p5 c1146121 d1 ready";
          "  p4 c1146121 d1 ready";
          "  p3 c1146121 d1 ready";
          "  p2 c1146121 d1 ready";
          "  p1 c1146121 d1 ready";
          "  p0 c1146121 d1 ready";
        ]
        (List.concat_map (render "") d.Diag.blocked)

(* Minor-heap words allocated by a whole run (elaboration, closure
   compilation and execution) per simulated access, or per loop iteration
   for the loops that make no access: the three kernels at 8 procs, and one
   loop each of integer load, integer store, integer scalar and real scalar
   work on one proc. Minor words are deterministic for a given compiler and
   program; the bounds sit about 10% above the values measured with OCaml
   5.1.1 (in the comment beside each) so a newer compiler's small drift
   passes and a new per-access allocation does not. The integer load,
   integer store and integer scalar loops allocate nothing per access or
   iteration; their bounds only allow the fixed cost of the run spread
   over the iterations. The values are those of the
   release build the workspace selects; the dev profile's [-opaque] stops
   cross-module inlining and allocates more. *)
let test_words_per_access () =
  let module Ddsm = Ddsm_core.Ddsm in
  let iterations = 100_000 in
  let one_proc_loop decls body =
    Printf.sprintf
      "      program p\n      integer n, i\n      parameter (n = %d)\n%s\n      do i = 1, n\n        %s\n      enddo\n      print *, s\n      end\n"
      iterations decls body
  in
  let measure name ~nprocs ~per_iteration compiled bound =
    let prog =
      match compiled with
      | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)
      | Ok obj -> (
          match Ddsm.link [ obj ] with
          | Ok (prog, _) -> prog
          | Error es -> Alcotest.failf "link: %s" (String.concat "; " es))
    in
    let rt = Ddsm.make_rt ~nprocs () in
    let before = Gc.minor_words () in
    match Ddsm.run prog ~rt () with
    | Error d -> Alcotest.failf "%s: %s" name (Ddsm.Diag.to_string d)
    | Ok o ->
        let words = Gc.minor_words () -. before in
        let per, unit =
          if per_iteration then (words /. float_of_int iterations, "iteration")
          else
            ( words
              /. float_of_int (Ddsm_machine.Counters.accesses o.Engine.counters),
              "access" )
        in
        check_bool
          (Printf.sprintf "%s -p %d: %.2f words per %s (bound %.2f)" name nprocs
             per unit bound)
          true (per <= bound)
  in
  List.iter
    (fun (name, bound) ->
      measure name ~nprocs:8 ~per_iteration:false
        (Ddsm.compile_path ("../examples/programs/" ^ name ^ ".pf"))
        bound)
    [ ("transpose", 1.8) (* 1.62 *); ("lu", 4.45) (* 4.05 *); ("conv", 3.2) (* 2.91 *) ];
  List.iter
    (fun (name, decls, body, per_iteration, bound) ->
      measure name ~nprocs:1 ~per_iteration
        (Ddsm.compile_source ~fname:"loop.pf" (one_proc_loop decls body))
        bound)
    [
      ("s = s + a(i)", "      integer s, a(n)", "s = s + a(i)", false, 0.1 (* 0.01 *));
      ("a(i) = i", "      integer s, a(n)", "a(i) = i", false, 0.1 (* 0.01 *));
      ("s = s + i", "      integer s", "s = s + i", true, 0.1 (* 0.01 *));
      ("s = s + i * 0.5", "      real*8 s", "s = s + i * 0.5", true, 8.8 (* 8.0 *));
    ]

let () =
  Alcotest.run "exec"
    [
      ( "basics",
        [
          Alcotest.test_case "scalar arithmetic & intrinsics" `Quick test_scalar_arithmetic;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "plain arrays" `Quick test_array_roundtrip;
        ] );
      ( "distribution semantics",
        [
          Alcotest.test_case "stencil equivalent across configs" `Quick
            test_equivalence_across_configs;
          Alcotest.test_case "reshaped transpose" `Quick test_transpose_correct;
          Alcotest.test_case "2-level convolution" `Quick test_conv2_all_configs_agree;
          Alcotest.test_case "cyclic(3)" `Quick test_cyclic_dists_agree;
          Alcotest.test_case "regular + redistribute" `Quick test_regular_dist_and_redistribute;
        ] );
      ( "subroutines",
        [
          Alcotest.test_case "portion passing (cyclic(5))" `Quick test_portion_passing;
          Alcotest.test_case "portion overflow detected" `Quick test_portion_overflow_detected;
          Alcotest.test_case "whole plain array, adjustable" `Quick test_whole_plain_array_passing;
          Alcotest.test_case "whole reshaped via clone" `Quick test_whole_reshaped_with_propagated_clone;
          Alcotest.test_case "whole regular array" `Quick test_whole_regular_array_passing;
          Alcotest.test_case "cyclic(5) stencil" `Quick test_cyclic_k_stencil;
          Alcotest.test_case "affinity on star dimension" `Quick test_affinity_on_star_dim;
          Alcotest.test_case "constant affinity subscript pins owner" `Quick
            test_affinity_constant_sub_pins_owner;
          Alcotest.test_case "2-D redistribute phase change" `Quick
            test_redistribute_2d_phase_change;
          Alcotest.test_case "reshaped shape mismatch" `Quick test_whole_reshaped_shape_mismatch_detected;
        ] );
      ( "machine integration",
        [
          Alcotest.test_case "dsm inquiry intrinsics" `Quick test_dsm_intrinsics;
          Alcotest.test_case "bounds checking" `Quick test_bounds_check;
          Alcotest.test_case "bounds error loads nothing twice" `Quick
            test_bounds_indirect_no_reload;
          Alcotest.test_case "cycle limit" `Quick test_cycle_limit;
          Alcotest.test_case "cycles scale with work" `Quick test_cycles_monotone_with_work;
          Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup_exists;
          Alcotest.test_case "optimizations reduce cycles" `Quick test_optimization_reduces_cycles;
          Alcotest.test_case "nested address discount" `Quick test_nested_address_discount;
          Alcotest.test_case "counters populated" `Quick test_counters_populated;
          Alcotest.test_case "schedule pinned" `Quick test_schedule_pinned;
          Alcotest.test_case "watchdog stall pinned" `Quick
            test_watchdog_stall_pinned;
          Alcotest.test_case "words per access" `Quick test_words_per_access;
          Alcotest.test_case "doacross in serial loop (hoist regression)" `Quick
            test_doacross_in_serial_loop;
          Alcotest.test_case "skewed loop semantics" `Quick test_skewed_loop_correct;
          Alcotest.test_case "onto clause" `Quick test_onto_clause;
          Alcotest.test_case "interleave schedtype" `Quick test_interleave_schedtype;
          Alcotest.test_case "chunked interleave" `Quick test_interleave_chunked;
          Alcotest.test_case "dsm portion bounds" `Quick test_dsm_portion_bounds;
          Alcotest.test_case "heap exhaustion" `Quick test_heap_exhaustion_reported;
          Alcotest.test_case "scalars pass by value" `Quick test_scalar_args_by_value;
        ] );
      ( "parallel regions",
        [
          Alcotest.test_case "barrier exchange at n = P" `Quick
            test_barrier_exchange;
          Alcotest.test_case "barrier in serial and nested code" `Quick
            test_barrier_serial_and_nested;
          Alcotest.test_case "held workers in the deadlock view" `Quick
            test_held_workers_in_deadlock_view;
          Alcotest.test_case "equivalence at run time" `Quick
            test_equivalence_at_run_time;
        ] );
    ]

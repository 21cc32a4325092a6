(* Tests for semantic analysis: symbol resolution, directive legality,
   compile-time error detection (paper §6). *)

open Ddsm_ir
open Ddsm_frontend
open Ddsm_sema

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let analyse ?allow_formal_dists src =
  match Parser.parse_file ~fname:"t.pf" src with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok f -> Sema.analyse_file ?allow_formal_dists f

let analyse_ok ?allow_formal_dists src =
  match analyse ?allow_formal_dists src with
  | Ok envs -> envs
  | Error es -> Alcotest.failf "unexpected sema errors: %s" (String.concat "; " es)

let analyse_err ?allow_formal_dists ~expect src =
  match analyse ?allow_formal_dists src with
  | Ok _ -> Alcotest.failf "expected a sema error mentioning %S" expect
  | Error es ->
      let found =
        List.exists
          (fun e ->
            let rec contains i =
              i + String.length expect <= String.length e
              && (String.sub e i (String.length expect) = expect || contains (i + 1))
            in
            contains 0)
          es
      in
      if not found then
        Alcotest.failf "errors %s do not mention %S" (String.concat "; " es) expect

let wrap body = "      program p\n" ^ body ^ "      end\n"

(* ------------------------------------------------------------------ *)

let test_good_program () =
  let envs =
    analyse_ok
      (wrap
         {|
      integer n, i
      parameter (n = 10)
      real*8 a(n, n)
c$distribute a(*, block)
      do i = 1, n
        a(i, i) = sqrt(dble(i))
      enddo
|})
  in
  let env = List.hd envs in
  let ai = Option.get (Sema.find_array env "a") in
  check_bool "distributed" true (ai.Sema.ai_dist <> None);
  (match ai.Sema.ai_const_shape with
  | Some (_, ext) -> Alcotest.(check (array int)) "extents" [| 10; 10 |] ext
  | None -> Alcotest.fail "expected constant shape");
  (* parameter n substituted into the body *)
  let body = env.Sema.routine.Decl.rbody in
  match (List.hd body).Stmt.s with
  | Stmt.Do d -> check_bool "hi folded to 10" true (d.Stmt.hi = Expr.Int 10)
  | _ -> Alcotest.fail "expected a do loop"

let test_intrinsic_resolution () =
  let envs =
    analyse_ok
      (wrap {|
      integer i, j
      i = mod(7, 3)
      j = max(i, 2)
|})
  in
  let env = List.hd envs in
  match (List.hd env.Sema.routine.Decl.rbody).Stmt.s with
  | Stmt.Assign (_, Expr.Intrin ("mod", _)) -> ()
  | s -> Alcotest.failf "expected intrinsic, got %s" (Format.asprintf "%a" Stmt.pp_body [ Stmt.mk s ])

let test_undeclared () =
  analyse_err ~expect:"undeclared" (wrap "      x = 1\n");
  analyse_err ~expect:"undeclared"
    (wrap "      integer i\n      i = k + 1\n")

let test_arity_and_types () =
  analyse_err ~expect:"dimensions"
    (wrap "      real*8 a(4, 4)\n      a(1) = 0.0\n");
  analyse_err ~expect:"subscript"
    (wrap "      real*8 a(4), x\n      x = 1.5\n      a(x) = 0.0\n");
  analyse_err ~expect:"neither"
    (wrap "      integer i\n      i = frobnicate(3)\n")

let test_assign_to_const_or_array () =
  analyse_err ~expect:"parameter"
    (wrap "      integer n\n      parameter (n = 4)\n      n = 5\n");
  analyse_err ~expect:"without subscripts"
    (wrap "      real*8 a(4)\n      a = 0.0\n")

let test_dist_legality () =
  analyse_err ~expect:"not declared" (wrap "c$distribute q(block)\n");
  analyse_err ~expect:"dimensions"
    (wrap "      real*8 a(4, 4)\nc$distribute a(block)\n");
  analyse_err ~expect:"cannot be both"
    (wrap
       "      real*8 a(8)\nc$distribute a(block)\nc$distribute_reshape a(block)\n");
  analyse_err ~expect:"duplicate"
    (wrap "      real*8 a(8)\nc$distribute a(block)\nc$distribute a(cyclic)\n");
  analyse_err ~expect:"onto"
    (wrap "      real*8 a(8, 8)\nc$distribute a(block, block) onto(2, 2, 1)\n");
  analyse_err ~expect:"no dimension"
    (wrap "      real*8 a(8)\nc$distribute a(*)\n")

let test_equivalence_reshape_error () =
  (* §6: disallowing the equivalencing of reshaped arrays is a
     compile-time check *)
  analyse_err ~expect:"equivalenced"
    (wrap
       {|
      real*8 a(8), b(8)
      equivalence (a, b)
c$distribute_reshape a(block)
|});
  (* equivalence of plain arrays is fine *)
  ignore
    (analyse_ok
       (wrap {|
      real*8 a(8), b(8)
      equivalence (a, b)
      a(1) = 0.0
|}));
  analyse_err ~expect:"larger"
    (wrap {|
      real*8 a(4), b(8)
      equivalence (a, b)
|})

let test_redistribute_legality () =
  (* PR 8: reshaped arrays redistribute via copy-then-install *)
  ignore
    (analyse_ok
       (wrap
          {|
      real*8 a(8)
c$distribute_reshape a(block)
c$redistribute a(cyclic)
|}));
  analyse_err ~expect:"not a distributed array"
    (wrap {|
      real*8 a(8)
c$redistribute a(cyclic)
|});
  analyse_err ~expect:"formal argument"
    "      subroutine s(a)\n      real*8 a(8)\nc$distribute a(block)\n\
     c$redistribute a(cyclic)\n      end\n";
  analyse_err ~expect:"at least one processor"
    (wrap
       {|
      real*8 a(8)
c$distribute a(block)
c$redistribute a(cyclic) procs(0)
|});
  ignore
    (analyse_ok
       (wrap
          {|
      real*8 a(8)
c$distribute a(block)
c$redistribute a(cyclic) procs(3)
|}))

let test_redistribute_in_doacross () =
  (* every iteration would relayout the shared array: rejected at the
     directive's line; before and after the loop it is legal *)
  let body redist_at =
    Printf.sprintf
      "      integer i\n      real*8 a(64)\nc$distribute a(block)\n%s\
       c$doacross local(i), shared(a)\n      do i = 1, 64\n%s\
      \        a(i) = i\n      enddo\n"
      (if redist_at = `Before then "c$redistribute a(cyclic)\n" else "")
      (if redist_at = `Inside then "c$redistribute a(cyclic)\n" else "")
  in
  analyse_err ~expect:"t.pf:7: c$redistribute a inside a c$doacross body"
    (wrap (body `Inside));
  ignore (analyse_ok (wrap (body `Before)))

let test_affinity_legality () =
  (* good: literal affine form *)
  ignore
    (analyse_ok
       (wrap
          {|
      integer i
      real*8 a(100)
c$distribute a(block)
c$doacross local(i) affinity(i) = data(a(2*i + 1))
      do i = 1, 49
        a(2*i+1) = 1.0
      enddo
|}));
  (* negative coefficient rejected *)
  analyse_err ~expect:"non-negative"
    (wrap
       {|
      integer i
      real*8 a(100)
c$distribute a(block)
c$doacross local(i) affinity(i) = data(a(100 - i))
      do i = 1, 99
        a(100-i) = 1.0
      enddo
|});
  (* non-affine rejected *)
  analyse_err ~expect:"literal form"
    (wrap
       {|
      integer i
      real*8 a(100)
c$distribute a(block)
c$doacross local(i) affinity(i) = data(a(i*i))
      do i = 1, 10
        a(i*i) = 1.0
      enddo
|});
  (* affinity on a non-distributed array rejected *)
  analyse_err ~expect:"not distributed"
    (wrap
       {|
      integer i
      real*8 a(100)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, 100
        a(i) = 1.0
      enddo
|})

let test_affinity_unmatched_dim_const () =
  (* a distributed dimension without an affinity variable needs a constant
     subscript (it pins the owning processor) *)
  analyse_err ~expect:"must use an affinity variable"
    (wrap
       {|
      integer i, k
      real*8 a(16, 16)
c$distribute a(*, block)
      k = 3
c$doacross local(i) affinity(i) = data(a(i, k))
      do i = 1, 16
        a(i, 1) = 1.0
      enddo
|});
  (* constant is fine *)
  ignore
    (analyse_ok
       (wrap
          {|
      integer i
      real*8 a(16, 16)
c$distribute a(*, block)
c$doacross local(i) affinity(i) = data(a(i, 3))
      do i = 1, 16
        a(i, 3) = 1.0
      enddo
|}))

let test_nest_perfect () =
  analyse_err ~expect:"perfect"
    (wrap
       {|
      integer i, j
      real*8 a(10, 10)
c$distribute a(block, block)
c$doacross nest(i, j) local(i, j)
      do i = 1, 10
        a(i, 1) = 0.0
        do j = 1, 10
          a(i, j) = 1.0
        enddo
      enddo
|});
  analyse_err ~expect:"does not match"
    (wrap
       {|
      integer i, j
      real*8 a(10, 10)
c$doacross nest(j, i) local(i, j)
      do i = 1, 10
        do j = 1, 10
          a(i, j) = 1.0
        enddo
      enddo
|})

let test_formal_dist_gate () =
  let src =
    {|
      subroutine s(x)
      real*8 x(10)
c$distribute_reshape x(block)
      x(1) = 0.0
      end
|}
  in
  analyse_err ~expect:"definition points" src;
  (* but allowed when compiling propagated clones *)
  ignore (analyse_ok ~allow_formal_dists:true src)

let test_adjustable_formals () =
  let envs =
    analyse_ok
      {|
      subroutine s(x, n)
      integer n
      real*8 x(n, n)
      x(1, 1) = 0.0
      end
|}
  in
  let env = List.hd envs in
  let ai = Option.get (Sema.find_array env "x") in
  check_bool "no constant shape" true (ai.Sema.ai_const_shape = None);
  check_bool "formal" true ai.Sema.ai_formal;
  (* non-formal adjustable arrays are rejected *)
  analyse_err ~expect:"constant bounds"
    {|
      subroutine s(n)
      integer n
      real*8 x(n)
      x(1) = 0.0
      end
|}

let test_dsm_intrinsics () =
  ignore
    (analyse_ok
       (wrap
          {|
      integer i, p
      real*8 a(64)
c$distribute a(block)
      p = dsm_nprocs()
      i = dsm_chunksize(a, 1)
|}));
  analyse_err ~expect:"distributed array"
    (wrap
       {|
      integer i
      real*8 a(64)
      i = dsm_chunksize(a, 1)
|})

let test_type_of () =
  let envs =
    analyse_ok
      (wrap
         {|
      integer i
      real*8 x, a(4)
      i = 1
      x = a(i) + 1
|})
  in
  let env = List.hd envs in
  check_bool "int var" true (Sema.type_of env (Expr.Var "i") = Types.Tint);
  check_bool "real promote" true
    (Sema.type_of env (Expr.Bin (Expr.Add, Expr.Var "i", Expr.Var "x")) = Types.Treal);
  check_bool "rel is int" true
    (Sema.type_of env (Expr.Rel (Expr.Lt, Expr.Var "i", Expr.Int 3)) = Types.Tint)

let test_common_checks () =
  analyse_err ~expect:"not declared"
    (wrap "      common /blk/ zz\n");
  analyse_err ~expect:"formal"
    {|
      subroutine s(x)
      real*8 x(4)
      common /blk/ x
      x(1) = 0.0
      end
|};
  analyse_err ~expect:"only arrays"
    (wrap "      real*8 x\n      common /blk/ x\n      x = 1.0\n");
  let envs =
    analyse_ok
      (wrap {|
      real*8 v(8)
      common /blk/ v
      v(1) = 1.0
|})
  in
  let ai = Option.get (Sema.find_array (List.hd envs) "v") in
  check_bool "common recorded" true (ai.Sema.ai_common = Some "blk")

let test_affinity_negative_offset () =
  (* only the coefficient p of the literal form p*i + q is sign-restricted
     (§3.4); a negative constant offset q is fine *)
  ignore
    (analyse_ok
       (wrap
          {|
      integer i
      real*8 a(100)
c$distribute a(block)
c$doacross local(i) affinity(i) = data(a(i - 2))
      do i = 3, 100
        a(i-2) = 1.0
      enddo
|}))

let test_reshaped_common_member () =
  (* distribute_reshape on a common member is legal within one routine —
     the cross-routine consistency check belongs to the linker — and both
     the reshape and the block membership must land in the array info *)
  let envs =
    analyse_ok
      (wrap
         {|
      real*8 v(100)
      common /blk/ v
c$distribute_reshape v(block)
      v(1) = 1.0
|})
  in
  let ai = Option.get (Sema.find_array (List.hd envs) "v") in
  check_bool "reshape recorded" true
    (match ai.Sema.ai_dist with Some d -> d.Decl.dreshape | None -> false);
  check_bool "common recorded" true (ai.Sema.ai_common = Some "blk")

let test_multiple_errors_reported () =
  match
    analyse (wrap "      x = 1\n      y = 2\n      z = 3\n")
  with
  | Ok _ -> Alcotest.fail "expected errors"
  | Error es -> check_int "all three reported" 3 (List.length es)

(* one file, two bodies for s: rejected at the second, naming the first *)
let test_routine_defined_twice () =
  let body = "      subroutine s(n)\n      integer n\n      end\n" in
  match analyse ("      program p\n      call s(1)\n      end\n" ^ body ^ body) with
  | Ok _ -> Alcotest.fail "expected a duplicate-routine error"
  | Error es ->
      Alcotest.(check (list string))
        "both locations"
        [ "t.pf:7: routine s defined twice in one file (first at t.pf:4)" ]
        es

(* Table-driven directive/storage rejections.  Each snippet is a complete
   program that must be rejected with a located message containing the
   expected fragment — the same diagnostics pflc surfaces on exit 2 and
   the differential fuzzer classifies as Reject. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let sema_reject_table =
  [
    ( "onto weight zero",
      "      program p\n      integer a(8)\nc$distribute a(block) onto(0)\n      end\n",
      "non-positive weight" );
    ( "onto arity mismatch",
      "      program p\n      integer a(8, 8)\nc$distribute a(block, block) onto(2, 2, 2)\n      end\n",
      "3 weights for 2 distributed dimensions" );
    ( "no distributed dimension",
      "      program p\n      integer a(8)\nc$distribute a(*)\n      end\n",
      "distributes no dimension" );
    ( "imperfect nest",
      "      program p\n      integer i, j\n      real*8 a(4, 4)\n\
       c$distribute a(block, block)\nc$doacross local(i, j), nest(i, j)\n\
      \      do i = 1, 4\n        a(i, 1) = 0.0\n        do j = 1, 4\n\
      \          a(i, j) = 1.0\n        enddo\n      enddo\n      end\n",
      "perfect loop nest" );
    ( "affinity to undistributed array",
      "      program p\n      integer i\n      real*8 a(8), b(8)\n\
       c$distribute a(block)\nc$doacross local(i), affinity(i) = data(b(i))\n\
      \      do i = 1, 8\n        a(i) = 0.0\n      enddo\n      end\n",
      "affinity array b is not distributed" );
    ( "scalar in common block",
      "      program p\n      real*8 x\n      common /cb/ x\n      end\n",
      "only arrays are supported in common blocks" );
    ( "redistribute onto zero processors",
      "      program p\n      real*8 a(8)\nc$distribute a(block)\n\
       c$redistribute a(cyclic) procs(0)\n      end\n",
      "at least one processor" );
    ( "redistribute of undistributed array",
      "      program p\n      real*8 a(8)\nc$redistribute a(cyclic)\n      end\n",
      "not a distributed array" );
    ( "distribute of undeclared array",
      "      program p\n      integer a(8)\nc$distribute b(block)\n      end\n",
      "not declared" );
  ]

let test_sema_reject_table () =
  List.iter
    (fun (name, src, expect) ->
      match analyse src with
      | Ok _ -> Alcotest.failf "%s: expected a sema error" name
      | Error es ->
          check_bool (name ^ ": error is located") true
            (List.exists (fun e -> contains e "t.pf:") es);
          if not (List.exists (fun e -> contains e expect) es) then
            Alcotest.failf "%s: errors %s do not mention %S" name
              (String.concat "; " es) expect)
    sema_reject_table

let () =
  Alcotest.run "sema"
    [
      ( "resolution",
        [
          Alcotest.test_case "good program" `Quick test_good_program;
          Alcotest.test_case "intrinsics" `Quick test_intrinsic_resolution;
          Alcotest.test_case "undeclared names" `Quick test_undeclared;
          Alcotest.test_case "arity & subscript types" `Quick test_arity_and_types;
          Alcotest.test_case "assignment targets" `Quick test_assign_to_const_or_array;
          Alcotest.test_case "type_of" `Quick test_type_of;
          Alcotest.test_case "multiple errors" `Quick test_multiple_errors_reported;
          Alcotest.test_case "routine defined twice" `Quick test_routine_defined_twice;
        ] );
      ( "directives",
        [
          Alcotest.test_case "distribute legality" `Quick test_dist_legality;
          Alcotest.test_case "reshaped equivalence rejected" `Quick test_equivalence_reshape_error;
          Alcotest.test_case "redistribute legality" `Quick test_redistribute_legality;
          Alcotest.test_case "redistribute in a doacross body" `Quick
            test_redistribute_in_doacross;
          Alcotest.test_case "affinity legality" `Quick test_affinity_legality;
          Alcotest.test_case "affinity negative offset" `Quick
            test_affinity_negative_offset;
          Alcotest.test_case "reshaped common member" `Quick
            test_reshaped_common_member;
          Alcotest.test_case "nest perfection" `Quick test_nest_perfect;
          Alcotest.test_case "affinity constant-dim restriction" `Quick
            test_affinity_unmatched_dim_const;
          Alcotest.test_case "formal dists gated" `Quick test_formal_dist_gate;
          Alcotest.test_case "dsm intrinsics" `Quick test_dsm_intrinsics;
          Alcotest.test_case "reject table" `Quick test_sema_reject_table;
        ] );
      ( "storage",
        [
          Alcotest.test_case "adjustable formals" `Quick test_adjustable_formals;
          Alcotest.test_case "common blocks" `Quick test_common_checks;
        ] );
    ]

(* Structural tests for the compiler transformation passes: scheduling,
   tiling/peeling, reference lowering, hoisting, CSE, div/mod selection.
   (Semantic equivalence against the unoptimized code is tested end-to-end
   in test_exec.ml.) *)

open Ddsm_ir
open Ddsm_frontend
open Ddsm_sema
open Ddsm_transform

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let compile ?(flags = Flags.all_on) src =
  match Parser.parse_file ~fname:"t.pf" src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok f -> (
      match Sema.analyse_file f with
      | Error es -> Alcotest.failf "sema: %s" (String.concat "; " es)
      | Ok envs -> List.map (Pipeline.run flags) envs)

let main_routine rs = List.hd rs

(* --- small expression census over a routine --- *)
let census (r : Decl.routine) =
  let doacross = ref 0
  and par = ref 0
  and hw_div = ref 0
  and fp_div = ref 0
  and meta = ref 0
  and baseof = ref 0
  and absload = ref 0
  and reshref = ref 0 in
  let rec go t =
    (match t.Stmt.s with
    | Stmt.Doacross _ -> incr doacross
    | Stmt.Par _ -> incr par
    | _ -> ());
    Stmt.iter_exprs
      (fun e ->
        Expr.iter
          (function
            | Expr.Idiv (Expr.Hw, _, _) | Expr.Imod (Expr.Hw, _, _) -> incr hw_div
            | Expr.Idiv (Expr.Fp, _, _) | Expr.Imod (Expr.Fp, _, _) -> incr fp_div
            | Expr.Meta _ -> incr meta
            | Expr.BaseOf _ -> incr baseof
            | Expr.AbsLoad _ -> incr absload
            | Expr.Ref _ -> incr reshref
            | _ -> ())
          e)
      t;
    match t.Stmt.s with
    | Stmt.Do d -> List.iter go d.Stmt.body
    | Stmt.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | Stmt.Par p -> List.iter go p.Stmt.pbody
    | Stmt.Doacross da -> List.iter go da.Stmt.loop.Stmt.body
    | _ -> ()
  in
  List.iter go r.Decl.rbody;
  (!doacross, !par, !hw_div, !fp_div, !meta, !baseof, !absload, !reshref)

(* count dynamic-position div/mod inside the innermost loops only *)
let rec innermost_divmod (ts : Stmt.t list) =
  List.fold_left
    (fun acc t ->
      match t.Stmt.s with
      | Stmt.Do d ->
          let inner_loops =
            List.exists
              (fun s -> match s.Stmt.s with Stmt.Do _ -> true | _ -> false)
              d.Stmt.body
          in
          if inner_loops then acc + innermost_divmod d.Stmt.body
          else
            let n = ref 0 in
            List.iter
              (fun s ->
                Stmt.iter_exprs
                  (fun e ->
                    Expr.iter
                      (function
                        | Expr.Idiv _ | Expr.Imod _ -> incr n
                        | _ -> ())
                      e)
                  s)
              d.Stmt.body;
            acc + !n
      | Stmt.Par p -> acc + innermost_divmod p.Stmt.pbody
      | Stmt.If (_, a, b) -> acc + innermost_divmod a + innermost_divmod b
      | _ -> acc)
    0 ts

(* does some innermost loop contain no div/mod at all? *)
let innermost_clean_exists (ts : Stmt.t list) =
  let found = ref false in
  let rec go t =
    match t.Stmt.s with
    | Stmt.Do d ->
        let has_inner =
          List.exists (fun s -> match s.Stmt.s with Stmt.Do _ -> true | _ -> false) d.Stmt.body
        in
        if has_inner then List.iter go d.Stmt.body
        else begin
          let n = ref 0 in
          List.iter
            (fun s ->
              Stmt.iter_exprs
                (fun e ->
                  Expr.iter
                    (function Expr.Idiv _ | Expr.Imod _ -> incr n | _ -> ())
                    e)
                s)
            d.Stmt.body;
          if !n = 0 then found := true
        end
    | Stmt.Par p -> List.iter go p.Stmt.pbody
    | Stmt.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | _ -> ()
  in
  List.iter go ts;
  !found

let simple_src =
  {|
      program p
      integer n, i
      parameter (n = 1000)
      real*8 a(n)
c$distribute_reshape a(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = i
      enddo
      end
|}

let test_doacross_becomes_par () =
  let r = main_routine (compile simple_src) in
  let doacross, par, _, _, _, _, _, _ = census r in
  check_int "no doacross left" 0 doacross;
  check_int "one par region" 1 par

let test_refs_lowered () =
  let r = main_routine (compile simple_src) in
  let _, _, _, _, _, baseof, absload, reshref = census r in
  check_bool "base pointer load present" true (baseof >= 1);
  check_bool "stores lowered" true (absload >= 0);
  check_int "no reshaped Ref remains" 0 reshref

let test_no_divmod_in_inner_loop_when_optimized () =
  let r = main_routine (compile ~flags:Flags.all_on simple_src) in
  check_int "optimized inner loop has no div/mod" 0 (innermost_divmod r.Decl.rbody)

let test_unoptimized_has_divmod () =
  let r = main_routine (compile ~flags:Flags.all_off simple_src) in
  check_bool "unoptimized inner loop has div or mod" true
    (innermost_divmod r.Decl.rbody > 0)

let test_fp_divmod_flag () =
  let _, _, hw, fp, _, _, _, _ =
    census (main_routine (compile ~flags:Flags.all_off simple_src))
  in
  check_bool "all_off uses hw div" true (hw > 0 && fp = 0);
  let _, _, _hw2, fp2, _, _, _, _ =
    census (main_routine (compile ~flags:{ Flags.all_off with Flags.fp_divmod = true } simple_src))
  in
  check_bool "fp flag switches implementation" true (fp2 > 0)

let stencil_src =
  {|
      program p
      integer n, i
      parameter (n = 1000)
      real*8 a(n), b(n)
c$distribute_reshape a(block), b(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 2, n-1
        a(i) = (b(i-1) + b(i) + b(i+1)) / 3
      enddo
      end
|}

let count_loops_under_par (r : Decl.routine) =
  let n = ref 0 in
  let rec go t =
    (match t.Stmt.s with Stmt.Do _ -> incr n | _ -> ());
    match t.Stmt.s with
    | Stmt.Do d -> List.iter go d.Stmt.body
    | Stmt.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | Stmt.Par p -> List.iter go p.Stmt.pbody
    | _ -> ()
  in
  List.iter go r.Decl.rbody;
  !n

let test_peeling_splits_loop () =
  let with_peel = main_routine (compile ~flags:Flags.all_on stencil_src) in
  let without_peel =
    main_routine
      (compile ~flags:{ Flags.all_on with Flags.peel = false } stencil_src)
  in
  check_bool "peeling creates extra loops" true
    (count_loops_under_par with_peel > count_loops_under_par without_peel);
  (* and the peeled version has a div/mod-free interior loop *)
  check_bool "an interior loop is clean" true
    (innermost_clean_exists with_peel.Decl.rbody)

let test_no_peel_keeps_neighbours_general () =
  let r =
    main_routine (compile ~flags:{ Flags.all_on with Flags.peel = false } stencil_src)
  in
  (* without peeling, b(i-1)/b(i+1) must keep general (div/mod) addressing *)
  check_bool "neighbour refs stay general" true (innermost_divmod r.Decl.rbody > 0)

let serial_tile_src =
  {|
      program p
      integer n, i
      parameter (n = 1000)
      real*8 a(n)
c$distribute_reshape a(block)
      do i = 1, n
        a(i) = i
      enddo
      end
|}

let test_serial_tiling () =
  let tiled = main_routine (compile ~flags:Flags.all_on serial_tile_src) in
  check_int "tiled serial loop is div/mod free inside" 0
    (innermost_divmod tiled.Decl.rbody);
  let untiled = main_routine (compile ~flags:Flags.all_off serial_tile_src) in
  check_bool "untiled pays div/mod" true (innermost_divmod untiled.Decl.rbody > 0)

let transpose_src =
  {|
      program p
      integer n, i, j
      parameter (n = 200)
      real*8 a(n, n), b(n, n)
c$distribute_reshape a(*, block), b(block, *)
c$doacross local(i, j)
      do i = 1, n
        do j = 1, n
          a(j, i) = b(i, j)
        enddo
      enddo
      end
|}

let test_transpose_both_arrays_reduced () =
  (* the i loop anchors A's dim 2 and coincides with B's dim 1 (both are the
     only distributed dimension of equal extent), so both references are
     strength-reduced *)
  let r = main_routine (compile ~flags:Flags.all_on transpose_src) in
  check_int "transpose interior is div/mod free" 0 (innermost_divmod r.Decl.rbody)

let skew_src =
  {|
      program p
      integer n, i, k
      parameter (n = 1000)
      real*8 a(n)
c$distribute_reshape a(block)
      k = 7
      do i = 1, n - 2*k
        a(i + 2*k) = i
      enddo
      end
|}

let test_skewing_enables_tiling () =
  (* with skewing the loop is tiled and its interior is div/mod free *)
  let skewed = main_routine (compile ~flags:Flags.all_on skew_src) in
  check_int "skewed interior clean" 0 (innermost_divmod skewed.Decl.rbody);
  (* without skewing the symbolic offset defeats tiling *)
  let unskewed =
    main_routine (compile ~flags:{ Flags.all_on with Flags.skew = false } skew_src)
  in
  check_bool "no skew -> div/mod remain" true
    (innermost_divmod unskewed.Decl.rbody > 0)

let test_hoist_moves_meta_out () =
  let no_hoist =
    main_routine (compile ~flags:{ Flags.all_on with Flags.hoist = false; cse = false } simple_src)
  in
  let hoist = main_routine (compile ~flags:Flags.all_on simple_src) in
  (* count Meta/BaseOf occurrences inside innermost loops *)
  let rec inner_meta ts =
    List.fold_left
      (fun acc t ->
        match t.Stmt.s with
        | Stmt.Do d ->
            let has_inner =
              List.exists (fun s -> match s.Stmt.s with Stmt.Do _ -> true | _ -> false) d.Stmt.body
            in
            if has_inner then acc + inner_meta d.Stmt.body
            else
              let n = ref 0 in
              List.iter
                (fun s ->
                  Stmt.iter_exprs
                    (fun e ->
                      Expr.iter
                        (function Expr.Meta _ | Expr.BaseOf _ -> incr n | _ -> ())
                        e)
                    s)
                d.Stmt.body;
              acc + !n
        | Stmt.Par p -> acc + inner_meta p.Stmt.pbody
        | Stmt.If (_, a, b) -> acc + inner_meta a + inner_meta b
        | _ -> acc)
      0 ts
  in
  check_bool "hoisting empties innermost loops of meta loads" true
    (inner_meta hoist.Decl.rbody < inner_meta no_hoist.Decl.rbody);
  check_int "fully hoisted" 0 (inner_meta hoist.Decl.rbody)

let test_cse_dedups () =
  (* same reshaped element read twice in one statement: CSE shares the
     address computation *)
  let src =
    {|
      program p
      integer n, i
      parameter (n = 100)
      real*8 a(n), s
c$distribute_reshape a(cyclic)
      s = 0.0
      do i = 1, n
        s = a(i) * a(i)
      enddo
      end
|}
  in
  let with_cse =
    main_routine (compile ~flags:{ Flags.all_off with Flags.cse = true } src)
  in
  let without =
    main_routine (compile ~flags:Flags.all_off src)
  in
  let _, _, hw_with, _, _, _, _, _ = census with_cse in
  let _, _, hw_without, _, _, _, _, _ = census without in
  check_bool "CSE reduced static div/mod count" true (hw_with < hw_without)

(* --- CSE against the pre-rewrite reference (test/cse_ref.ml) --- *)

(* Pipeline.run up to and including hoisting, on a fresh context *)
let post_hoist flags (env : Sema.env) =
  let ctx = Tctx.create env in
  let r =
    if flags.Flags.inspector then Inspector.routine ctx env.Sema.routine
    else env.Sema.routine
  in
  let r = Lower.routine ctx flags r in
  let r = if flags.Flags.interchange then Interchange.routine r else r in
  (ctx, if flags.Flags.hoist then Hoist.routine ctx r else r)

(* Runs the pass and the reference from identical contexts over the same
   routine; fails unless both produce the same routine, with the same
   sharing, and leave the fresh-name supply at the same point. Returns the
   pass's routine. *)
let check_same_as_ref what (ctx1, r1) (ctx2, r2) =
  let got = Cse.routine ctx1 r1 and want = Cse_ref.routine ctx2 r2 in
  (* [compare], not [=]: a NaN literal is equal to itself here *)
  if compare got want <> 0 then Alcotest.failf "%s: CSE output differs from the reference" what;
  (* images marshal the IR with its physical sharing, so that must match too *)
  if Marshal.to_string got [] <> Marshal.to_string want [] then
    Alcotest.failf "%s: CSE output shares nodes differently from the reference" what;
  check_string (what ^ ": next fresh name") (Tctx.fresh ctx2 "next") (Tctx.fresh ctx1 "next");
  got

let envs_of_files what files =
  List.concat_map
    (fun (fname, src) ->
      match Parser.parse_file ~fname src with
      | Error e -> Alcotest.failf "%s: parse %s: %s" what fname e
      | Ok f -> (
          match Sema.analyse_file f with
          | Error es -> Alcotest.failf "%s: sema %s: %s" what fname (String.concat "; " es)
          | Ok envs -> envs))
    files

let same_on_envs what envs =
  List.iter
    (fun (env : Sema.env) ->
      let what = what ^ "/" ^ env.Sema.routine.Decl.rname in
      List.iter
        (fun flags ->
          ignore (check_same_as_ref what (post_hoist flags env) (post_hoist flags env)))
        [ Flags.all_on; { Flags.all_on with Flags.hoist = false } ])
    envs;
  List.length envs

let test_cse_matches_ref_examples () =
  let dir = "../examples/programs" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pf")
    |> List.sort compare
  in
  check_bool "example programs found" true (List.length files >= 9);
  let n =
    List.fold_left
      (fun n f ->
        let src = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
        n + same_on_envs f (envs_of_files f [ (f, src) ]))
      0 files
  in
  check_bool "every example routine compared" true (n >= List.length files)

let test_cse_matches_ref_fuzz () =
  let programs = 320 in
  for seed = 1 to programs do
    let level = 10 + (seed mod 31) in
    let spec = Ddsm_fuzz.Gen.generate ~size:(Ddsm_fuzz.Gen.of_level level) ~seed () in
    let what = Printf.sprintf "seed %d level %d" seed level in
    ignore (same_on_envs what (envs_of_files what (Ddsm_fuzz.Spec.render spec)))
  done

(* Hand-built blocks for the behaviours the generated programs may miss.
   [routine_with body] is a parsed routine whose body is replaced. *)
let routine_with body =
  let env =
    List.hd
      (envs_of_files "stub"
         [ ("t.pf", "      program p\n      integer n, m\n      n = 1\n      end\n") ])
  in
  let r = { env.Sema.routine with Decl.rbody = body } in
  ((Tctx.create env, r), (Tctx.create env, r))

let mk s = Stmt.mk s
let assign x e = mk (Stmt.Assign (Stmt.LVar x, e))
let v x = Expr.Var x
let idiv a b = Expr.Idiv (Expr.Hw, a, b)
let imod a b = Expr.Imod (Expr.Hw, a, b)

(* (position, name, value) of each CSE temp defined in [body] *)
let cse_temps body =
  List.concat
    (List.mapi
       (fun i t ->
         match t.Stmt.s with
         | Stmt.Assign (Stmt.LVar x, e) when String.starts_with ~prefix:"cse$" x -> [ (i, x, e) ]
         | _ -> [])
       body)

let uses_var x t =
  let found = ref false in
  Stmt.iter_exprs (Expr.iter (function Expr.Var y when y = x -> found := true | _ -> ())) t;
  !found

let test_cse_nested_assign_splits () =
  let c = Expr.Bin (Expr.Add, idiv (v "n") (Expr.Int 4), Expr.Int 1) in
  let loop =
    mk
      (Stmt.Do
         { Stmt.var = "i"; lo = Expr.Int 1; hi = Expr.Int 3; step = None;
           body = [ assign "n" (v "i") ] })
  in
  let body = [ assign "x" c; assign "y" c; loop; assign "z" c; assign "w" c ] in
  let a, b = routine_with body in
  let out = (check_same_as_ref "nested assign" a b).Decl.rbody in
  match cse_temps out with
  | [ (i1, _, _); (i2, _, _) ] ->
      let is_loop t = match t.Stmt.s with Stmt.Do _ -> true | _ -> false in
      check_bool "the loop assigning n lies between the two temps" true
        (List.exists is_loop (List.filteri (fun i _ -> i > i1 && i < i2) out))
  | ts -> Alcotest.failf "expected one temp per kill-free segment, got %d" (List.length ts)

let test_cse_redistribute_kills_meta () =
  let c = Expr.Bin (Expr.Mul, Expr.Meta ("a", Expr.Block 0), Expr.Int 2) in
  let redist =
    mk (Stmt.Redistribute
          { Stmt.rarray = "a"; rkinds = [ Ddsm_dist.Kind.Cyclic ]; ronto = None; rprocs = None })
  in
  let loop =
    mk (Stmt.Do { Stmt.var = "i"; lo = Expr.Int 1; hi = Expr.Int 2; step = None; body = [ redist ] })
  in
  let body = [ assign "x" c; assign "y" c; loop; assign "z" c ] in
  let a, b = routine_with body in
  let out = (check_same_as_ref "redistribute" a b).Decl.rbody in
  match cse_temps out with
  | [ (_, t, _) ] ->
      let last = List.nth out (List.length out - 1) in
      check_bool "the read after c$redistribute reloads the descriptor" false (uses_var t last)
  | ts -> Alcotest.failf "expected one temp, before the redistribution, got %d" (List.length ts)

let test_cse_ties_follow_table_order () =
  (* equal count (2) and equal size (3): the winner is the first in the
     candidate table's order, whichever statement comes first *)
  let p = idiv (v "n") (Expr.Int 2) and q = imod (v "m") (Expr.Int 3) in
  List.iter
    (fun (what, body) ->
      let a, b = routine_with body in
      let out = (check_same_as_ref what a b).Decl.rbody in
      check_int (what ^ ": both shared") 2 (List.length (cse_temps out)))
    [
      ("p first", [ assign "x" p; assign "y" q; assign "z" p; assign "w" q ]);
      ("q first", [ assign "x" q; assign "y" p; assign "z" q; assign "w" p ]);
      ("interleaved", [ assign "x" (Expr.Bin (Expr.Add, p, q)); assign "y" q; assign "z" p;
                        assign "w" (Expr.Bin (Expr.Sub, q, p)) ]);
    ]

let test_cse_nan_never_counts () =
  (* Expr.equal is [=]: a candidate holding a NaN literal is not equal to
     itself, so its repeats are never shared; its NaN-free part still is *)
  let c = Expr.Bin (Expr.Add, idiv (v "n") (Expr.Int 2), Expr.Real Float.nan) in
  let a, b = routine_with [ assign "x" c; assign "y" c ] in
  let out = (check_same_as_ref "nan" a b).Decl.rbody in
  match cse_temps out with
  | [ (_, _, e) ] -> check_int "only the NaN-free subterm" 0 (compare e (idiv (v "n") (Expr.Int 2)))
  | ts -> Alcotest.failf "expected one temp, got %d" (List.length ts)

let test_cse_round_cap () =
  (* 60 profitable candidates in one block: the pass stops after 51 rounds *)
  let body =
    List.concat
      (List.init 60 (fun k ->
           let c = idiv (v "n") (Expr.Int (k + 2)) in
           [ assign (Printf.sprintf "x%d" k) c; assign (Printf.sprintf "y%d" k) c ]))
  in
  let a, b = routine_with body in
  let out = (check_same_as_ref "round cap" a b).Decl.rbody in
  check_int "51 temps" 51 (List.length (cse_temps out))

let test_cyclic_figure2 () =
  let src =
    {|
      program p
      integer n, i
      parameter (n = 100)
      real*8 a(n)
c$distribute a(cyclic)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = i
      enddo
      end
|}
  in
  let r =
    main_routine (compile ~flags:{ Flags.all_on with Flags.cse = false } src)
  in
  (* the scheduled loop must step by P (a Meta procs expression) *)
  let found = ref false in
  let rec go t =
    match t.Stmt.s with
    | Stmt.Do d ->
        (match d.Stmt.step with
        | Some (Expr.Meta (_, Expr.Procs _)) -> found := true
        | _ -> ());
        List.iter go d.Stmt.body
    | Stmt.Par p -> List.iter go p.Stmt.pbody
    | Stmt.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | _ -> ()
  in
  List.iter go r.Decl.rbody;
  check_bool "cyclic loop steps by P" true !found

let test_interchange_bubbles_ptile () =
  (* serial nest over a column-distributed array: the j loop tiles, and the
     ptile loop should bubble above the i loop inside the Par region of an
     enclosing simple doacross... use a serial nest in a doacross region *)
  let src =
    {|
      program p
      integer n, i, j
      parameter (n = 100)
      real*8 a(n, n)
c$distribute_reshape a(block, *)
c$doacross local(i, j)
      do j = 1, n
        do i = 1, n
          a(i, j) = i + j
        enddo
      enddo
      end
|}
  in
  let flags = Flags.all_on in
  let r = main_routine (compile ~flags src) in
  (* find a ptile loop that directly contains a data loop (interchanged) *)
  let found = ref false in
  let rec go t =
    match t.Stmt.s with
    | Stmt.Do d ->
        (if String.length d.Stmt.var >= 5 && String.sub d.Stmt.var 0 5 = "ptile"
         then
           List.iter
             (fun s ->
               match s.Stmt.s with
               | Stmt.Do inner
                 when not
                        (String.length inner.Stmt.var >= 5
                        && String.sub inner.Stmt.var 0 5 = "ptile") ->
                   found := true
               | _ -> ())
             d.Stmt.body);
        List.iter go d.Stmt.body
    | Stmt.Par p -> List.iter go p.Stmt.pbody
    | Stmt.If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | _ -> ()
  in
  List.iter go r.Decl.rbody;
  check_bool "a ptile loop directly wraps a data loop" !found true

let () =
  Alcotest.run "transform"
    [
      ( "lowering",
        [
          Alcotest.test_case "doacross -> Par" `Quick test_doacross_becomes_par;
          Alcotest.test_case "reshaped refs lowered" `Quick test_refs_lowered;
          Alcotest.test_case "cyclic schedule (Figure 2)" `Quick test_cyclic_figure2;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "optimized inner loop div/mod free" `Quick
            test_no_divmod_in_inner_loop_when_optimized;
          Alcotest.test_case "unoptimized pays div/mod" `Quick test_unoptimized_has_divmod;
          Alcotest.test_case "peeling" `Quick test_peeling_splits_loop;
          Alcotest.test_case "no-peel keeps neighbours general" `Quick
            test_no_peel_keeps_neighbours_general;
          Alcotest.test_case "serial tiling" `Quick test_serial_tiling;
          Alcotest.test_case "transpose coincident groups" `Quick
            test_transpose_both_arrays_reduced;
          Alcotest.test_case "interchange bubbles ptile loops" `Quick
            test_interchange_bubbles_ptile;
          Alcotest.test_case "skewing enables tiling" `Quick test_skewing_enables_tiling;
        ] );
      ( "scalar opts",
        [
          Alcotest.test_case "hoisting" `Quick test_hoist_moves_meta_out;
          Alcotest.test_case "CSE" `Quick test_cse_dedups;
          Alcotest.test_case "fp div/mod flag" `Quick test_fp_divmod_flag;
        ] );
      ( "cse vs reference",
        [
          Alcotest.test_case "example programs" `Quick test_cse_matches_ref_examples;
          Alcotest.test_case "generated programs, levels 10-40" `Quick test_cse_matches_ref_fuzz;
          Alcotest.test_case "nested assignment splits a segment" `Quick
            test_cse_nested_assign_splits;
          Alcotest.test_case "c$redistribute kills descriptor reads" `Quick
            test_cse_redistribute_kills_meta;
          Alcotest.test_case "equal count and size: table order" `Quick
            test_cse_ties_follow_table_order;
          Alcotest.test_case "NaN literal never counts" `Quick test_cse_nan_never_counts;
          Alcotest.test_case "51-round cap" `Quick test_cse_round_cap;
        ] );
    ]

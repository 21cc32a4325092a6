(* Tests for the lexer and parser of the mini-Fortran surface language. *)

open Ddsm_ir
open Ddsm_frontend
module K = Ddsm_dist.Kind

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let parse_ok src =
  match Parser.parse_file ~fname:"test.pf" src with
  | Ok f -> f
  | Error e -> Alcotest.failf "parse error: %s" e

let parse_err src =
  match Parser.parse_file ~fname:"test.pf" src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e -> e

(* an expression, parsed as the right-hand side of an assignment *)
let expr_ok s =
  match (List.hd (parse_ok ("      program p\n      x = " ^ s ^ "\n      end\n")).Decl.routines).Decl.rbody with
  | [ { Stmt.s = Stmt.Assign (Stmt.LVar "x", e); _ } ] -> e
  | _ -> Alcotest.failf "expected one assignment for %S" s

(* ------------------------------------------------------------------ *)
(* Lexer *)

let toks s =
  match Lexer.tokenize ~fname:"t" s with
  | Ok l -> List.map (fun { Lexer.tok; _ } -> tok) l
  | Error e -> Alcotest.failf "lex error: %s" e

let test_lex_numbers () =
  Alcotest.(check bool) "ints and reals" true
    (toks "42 3.5 1e3 2.5d0 1.d0"
    = [ Token.TInt 42; Token.TReal 3.5; Token.TReal 1000.0; Token.TReal 2.5;
        Token.TReal 1.0; Token.TNewline; Token.TEof ])

let test_lex_dotted_ops () =
  check_bool "1.lt.2 does not eat the dot as a fraction" true
    (toks "1.lt.2"
    = [ Token.TInt 1; Token.TRel Expr.Lt; Token.TInt 2; Token.TNewline; Token.TEof ]);
  check_bool ".and. .not." true
    (toks "x .and. .not. y"
    = [ Token.TIdent "x"; Token.TAnd; Token.TNot; Token.TIdent "y";
        Token.TNewline; Token.TEof ])

let test_lex_comments_and_directives () =
  check_bool "c comment skipped" true
    (toks "c this is a comment\nx = 1"
    = [ Token.TIdent "x"; Token.TAssign; Token.TInt 1; Token.TNewline; Token.TEof ]);
  check_bool "bang comment" true
    (toks "x = 1 ! trailing\n! full line"
    = [ Token.TIdent "x"; Token.TAssign; Token.TInt 1; Token.TNewline; Token.TEof ]);
  (match toks "c$distribute a(block)" with
  | Token.TDirective "distribute" :: _ -> ()
  | _ -> Alcotest.fail "directive not recognised");
  match toks "C$DOACROSS local(i)" with
  | Token.TDirective "doacross" :: _ -> ()
  | _ -> Alcotest.fail "uppercase directive not recognised"

let test_lex_case_insensitive () =
  check_bool "identifiers lowercased" true
    (toks "CALL FooBar(X)"
    = [ Token.TIdent "call"; Token.TIdent "foobar"; Token.TLparen;
        Token.TIdent "x"; Token.TRparen; Token.TNewline; Token.TEof ])

let test_lex_strings () =
  check_bool "string with escaped quote" true
    (toks "print 'it''s'"
    = [ Token.TIdent "print"; Token.TStr "it's"; Token.TNewline; Token.TEof ]);
  check_bool "unterminated string is an error" true
    (match Lexer.tokenize ~fname:"t" "print 'oops" with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)
(* Expressions *)

let test_expr_precedence () =
  check_str "mul binds tighter" "(1 + (2 * 3))" (Expr.to_string (expr_ok "1+2*3"));
  check_str "power right-assoc" "(2 ** (3 ** 2))" (Expr.to_string (expr_ok "2**3**2"));
  check_str "unary minus" "((-1) + 2)" (Expr.to_string (expr_ok "-1+2"));
  check_str "relational" "((a + 1) .lt. b)" (Expr.to_string (expr_ok "a+1 .lt. b"));
  check_bool "f90 and dotted relational agree" true
    (Expr.equal (expr_ok "a <= b") (expr_ok "a .le. b"));
  check_str "array ref" "a((i + 1), j)" (Expr.to_string (expr_ok "A(i+1, j)"))

let test_expr_const_fold () =
  Alcotest.(check (option int)) "const_int" (Some 14) (Expr.const_int (expr_ok "2+3*4"));
  Alcotest.(check (option int)) "power" (Some 8) (Expr.const_int (expr_ok "2**3"));
  check_bool "simplify x*1" true
    (Expr.equal (Expr.simplify (expr_ok "x*1")) (Expr.Var "x"))

(* ------------------------------------------------------------------ *)
(* Programs *)

let transpose_src =
  {|
      program transpose
      integer n
      parameter (n = 100)
      real*8 A(n, n), B(n, n)
c$distribute A(*, block), B(block, *)
      integer i, j
c$doacross local(i, j)
      do i = 1, n
        do j = 1, n
          A(j, i) = B(i, j)
        end do
      end do
      end
|}

let test_parse_transpose () =
  let f = parse_ok transpose_src in
  check_int "one routine" 1 (List.length f.Decl.routines);
  let r = List.hd f.Decl.routines in
  check_str "name" "transpose" r.Decl.rname;
  check_bool "is program" true (r.Decl.rkind = Decl.Program);
  check_int "five declarations" 5 (List.length r.Decl.rdecls);
  check_int "two distributes" 2 (List.length r.Decl.rdists);
  let da = List.hd r.Decl.rdists in
  check_str "first target" "a" da.Decl.dtarget;
  check_bool "A is (*, block)" true (da.Decl.dkinds = [ K.Star; K.Block ]);
  let db = List.nth r.Decl.rdists 1 in
  check_bool "B is (block, *)" true (db.Decl.dkinds = [ K.Block; K.Star ]);
  check_bool "not reshaped" true (not da.Decl.dreshape);
  (* the body is a single doacross *)
  match r.Decl.rbody with
  | [ { s = Stmt.Doacross da; _ } ] ->
      Alcotest.(check (list string)) "locals" [ "i"; "j" ] da.Stmt.locals;
      check_str "outer loop var" "i" da.Stmt.loop.Stmt.var
  | _ -> Alcotest.fail "expected a single doacross"

let conv_src =
  {|
      program conv
      integer n
      parameter (n = 64)
      real*8 A(n, n), B(n, n)
c$distribute_reshape A(block, block), B(block, block)
      integer i, j
c$doacross nest(i, j) local(i, j) affinity(j, i) = data(A(i, j))
      do j = 2, n-1
        do i = 2, n-1
          A(i,j) = (B(i-1,j)+B(i,j-1)+B(i,j)+B(i,j+1)+B(i+1,j)) / 5
        enddo
      enddo
      end
|}

let test_parse_convolution () =
  let f = parse_ok conv_src in
  let r = List.hd f.Decl.routines in
  check_bool "reshaped" true (List.hd r.Decl.rdists).Decl.dreshape;
  match r.Decl.rbody with
  | [ { s = Stmt.Doacross da; _ } ] -> (
      Alcotest.(check (list string)) "nest" [ "i"; "j" ] da.Stmt.nest_vars;
      match da.Stmt.affinity with
      | Some a ->
          check_str "affinity array" "a" a.Stmt.aarray;
          Alcotest.(check (list string)) "affinity vars" [ "j"; "i" ] a.Stmt.avars;
          check_int "two subscripts" 2 (List.length a.Stmt.asubs)
      | None -> Alcotest.fail "expected an affinity clause")
  | _ -> Alcotest.fail "expected a single doacross"

let sub_src =
  {|
      subroutine mysub(x, n)
      integer n
      real*8 x(5)
      integer k
      do k = 1, 5
        x(k) = x(k) * 2
      enddo
      return
      end

      program main
      real*8 a(1000)
c$distribute_reshape a(cyclic(5))
      integer i, n
      n = 1000
      do i = 1, 1000, 5
        call mysub(a(i), n)
      enddo
      end
|}

let test_parse_two_routines () =
  let f = parse_ok sub_src in
  check_int "two routines" 2 (List.length f.Decl.routines);
  let sub = List.hd f.Decl.routines in
  check_bool "subroutine" true (sub.Decl.rkind = Decl.Subroutine);
  Alcotest.(check (list string)) "params" [ "x"; "n" ] sub.Decl.rparams;
  let main = List.nth f.Decl.routines 1 in
  check_bool "cyclic(5)" true
    ((List.hd main.Decl.rdists).Decl.dkinds = [ K.Cyclic_k 5 ]);
  (* call with an element actual *)
  let calls = Stmt.calls_made main.Decl.rbody in
  Alcotest.(check (list string)) "calls" [ "mysub" ] calls

let misc_src =
  {|
      program misc
      integer i, n
      real*8 s, v(0:9)
      common /blk/ v
      parameter (n = 10)
      s = 0.0
      do i = 0, 9, 2
        if (v(i) .gt. 0.0) then
          s = s + v(i)
        elseif (v(i) .lt. -1.0) then
          s = s - 1.0
        else
          s = s + 1.0
        endif
      end do
      if (s .gt. 100.0) s = 100.0
c$redistribute v(cyclic)
      print *, 'sum', s
      end
|}

let test_parse_misc () =
  let f = parse_ok misc_src in
  let r = List.hd f.Decl.routines in
  (* lower-bound declaration *)
  let v = List.find (fun d -> d.Decl.vname = "v") r.Decl.rdecls in
  (match v.Decl.vdims with
  | [ { dlo = Expr.Int 0; dhi = Expr.Int 9 } ] -> ()
  | _ -> Alcotest.fail "expected v(0:9)");
  Alcotest.(check (list (pair string (list string))))
    "common" [ ("blk", [ "v" ]) ] r.Decl.rcommons;
  (* redistribute statement present *)
  let has_redist =
    List.exists
      (fun s -> match s.Stmt.s with Stmt.Redistribute _ -> true | _ -> false)
      r.Decl.rbody
  in
  check_bool "redistribute parsed" true has_redist;
  (* step-2 do loop *)
  match
    List.find_opt (fun s -> match s.Stmt.s with Stmt.Do _ -> true | _ -> false) r.Decl.rbody
  with
  | Some { s = Stmt.Do d; _ } ->
      check_bool "step" true (d.Stmt.step = Some (Expr.Int 2))
  | _ -> Alcotest.fail "no do loop"

let test_parse_equivalence_onto () =
  let src =
    {|
      program p
      real*8 a(100), b(100), g(8, 8)
      equivalence (a, b)
c$distribute g(block, block) onto(2, 1)
      a(1) = 1.0
      end
|}
  in
  let f = parse_ok src in
  let r = List.hd f.Decl.routines in
  Alcotest.(check (list (pair string string))) "equiv" [ ("a", "b") ] r.Decl.requivs;
  check_bool "onto parsed" true
    ((List.hd r.Decl.rdists).Decl.donto = Some [ 2; 1 ])

let test_parse_errors () =
  let e = parse_err "      program p\n      do i = 1\n      end\n" in
  check_bool "missing comma reported with location" true
    (String.length e > 0 && String.sub e 0 7 = "test.pf");
  ignore (parse_err "      subroutine s\n      x = \n      end\n");
  ignore (parse_err "      program p\n      real*4 x\n      end\n");
  ignore (parse_err "      program p\nc$doacross bogus(i)\n      do i=1,2\n      enddo\n      end\n")

let str_contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_parse_cyclic_chunk_bounds () =
  let mk k =
    Printf.sprintf
      "      program p\n      real*8 a(100)\nc$distribute a(cyclic(%s))\n      end\n"
      k
  in
  let e0 = parse_err (mk "0") in
  check_bool "cyclic(0) names the bad chunk" true
    (str_contains e0 "cyclic(0): chunk size must be >= 1");
  let en = parse_err (mk "-1") in
  check_bool "cyclic(-1) names the bad chunk" true
    (str_contains en "cyclic(-1): chunk size must be >= 1");
  (* sanity: positive chunks still parse *)
  ignore (parse_ok (mk "3"))

let test_parse_barrier_directive () =
  let src =
    "      program p\n      integer i\n      real*8 a(8)\nc$distribute a(block)\nc$doacross local(i)\n      do i = 1, 8\n        a(i) = i\nc$barrier\n        a(i) = a(i) + 1\n      enddo\n      end\n"
  in
  let f = parse_ok src in
  let r = List.hd f.Decl.routines in
  let rec count ss =
    List.fold_left
      (fun acc s ->
        match s.Stmt.s with
        | Stmt.Barrier -> acc + 1
        | Stmt.Do d -> acc + count d.Stmt.body
        | Stmt.Doacross da -> acc + count da.Stmt.loop.Stmt.body
        | Stmt.If (_, a, b) -> acc + count a + count b
        | _ -> acc)
      0 ss
  in
  check_int "one barrier inside the parallel loop" 1 (count r.Decl.rbody)

let test_roundtrip_pp () =
  (* the pretty-printer should at least produce something for each construct *)
  let f = parse_ok transpose_src in
  let s =
    Format.asprintf "%a" (Format.pp_print_list Decl.pp_routine) f.Decl.routines
  in
  check_bool "pp non-empty" true (String.length s > 100)

(* Table-driven rejections: every malformed program must produce a
   diagnostic that leads with the source location (file:line).  This is
   the contract behind pflc's exit-2 path and the fuzzer's Reject
   bucket — a rejection is only useful if it says where. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let parse_reject_table =
  [
    ( "cyclic chunk zero",
      "      program p\n      integer a(8)\nc$distribute a(cyclic(0))\n      end\n",
      "chunk size" );
    ( "unterminated declaration",
      "      program p\n      integer a(\n      end\n",
      "unexpected" );
    ( "missing rhs",
      "      program p\n      integer i\n      i = \n      end\n",
      "unexpected" );
    ( "do without enddo",
      "      program p\n      integer i\n      do i = 1, 4\n      i = i\n      end\n",
      "expected =" );
    ( "unknown directive",
      "      program p\nc$frobnicate a(block)\n      end\n",
      "unexpected directive" );
    ( "unterminated string",
      "      program p\n      print *, 'oops\n      end\n",
      "unterminated string" );
  ]

let test_parse_reject_table () =
  List.iter
    (fun (name, src, expect) ->
      let e = parse_err src in
      check_bool (name ^ ": error is located") true (contains e "test.pf:");
      if not (contains e expect) then
        Alcotest.failf "%s: error %S does not mention %S" name e expect)
    parse_reject_table

let () =
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "numbers" `Quick test_lex_numbers;
          Alcotest.test_case "dotted operators" `Quick test_lex_dotted_ops;
          Alcotest.test_case "comments & directives" `Quick test_lex_comments_and_directives;
          Alcotest.test_case "case insensitivity" `Quick test_lex_case_insensitive;
          Alcotest.test_case "strings" `Quick test_lex_strings;
        ] );
      ( "expr",
        [
          Alcotest.test_case "precedence" `Quick test_expr_precedence;
          Alcotest.test_case "constant folding" `Quick test_expr_const_fold;
        ] );
      ( "programs",
        [
          Alcotest.test_case "matrix transpose" `Quick test_parse_transpose;
          Alcotest.test_case "convolution with nest & affinity" `Quick test_parse_convolution;
          Alcotest.test_case "two routines, cyclic(5) portions" `Quick test_parse_two_routines;
          Alcotest.test_case "misc statements" `Quick test_parse_misc;
          Alcotest.test_case "equivalence & onto" `Quick test_parse_equivalence_onto;
          Alcotest.test_case "errors are located" `Quick test_parse_errors;
          Alcotest.test_case "cyclic chunk bounds" `Quick
            test_parse_cyclic_chunk_bounds;
          Alcotest.test_case "barrier directive" `Quick
            test_parse_barrier_directive;
          Alcotest.test_case "pretty printing" `Quick test_roundtrip_pp;
          Alcotest.test_case "reject table" `Quick test_parse_reject_table;
        ] );
    ]

(* Tests for the fuzzing stack: generator well-formedness, the
   differential driver's verdicts, shrinker convergence, triage
   bucketing/dedup, and corpus round-tripping. *)

module Gen = Ddsm_fuzz.Gen
module Spec = Ddsm_fuzz.Spec
module Differ = Ddsm_fuzz.Differ
module Shrink = Ddsm_fuzz.Shrink
module Triage = Ddsm_fuzz.Triage
module Corpus = Ddsm_fuzz.Corpus
module Ddsm = Ddsm_core.Ddsm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Generator: every seed must render to source that compiles and links.
   This is the "well-formed by construction" contract — the fuzzer
   explores executions, not syntax errors. *)

let test_generator_well_formed () =
  for seed = 0 to 49 do
    let spec = Gen.generate ~seed () in
    let files = Spec.render spec in
    check_bool (Printf.sprintf "seed %d renders at least one file" seed) true
      (files <> []);
    let objs =
      List.map
        (fun (fname, src) ->
          match Ddsm.compile_source ~fname src with
          | Ok o -> o
          | Error es ->
              Alcotest.failf "seed %d: %s does not compile: %s" seed fname
                (String.concat "; " es))
        files
    in
    match Ddsm.link objs with
    | Ok _ -> ()
    | Error es ->
        Alcotest.failf "seed %d: does not link: %s" seed
          (String.concat "; " es)
  done

let test_generator_deterministic () =
  let a = Spec.render (Gen.generate ~seed:7 ()) in
  let b = Spec.render (Gen.generate ~seed:7 ()) in
  check_bool "same seed, same program" true (a = b)

(* ------------------------------------------------------------------ *)
(* Differential driver *)

let run_src ?(seed = 0) src =
  Differ.run (Differ.default ~seed) [ ("t.pf", src) ]

let test_differ_pass () =
  let src =
    "      program main\n      integer i, n\n      parameter (n = 8)\n\
     \      real*8 a(n), chk\nc$distribute a(block)\n\
     c$doacross local(i), shared(a)\n      do i = 1, n\n\
     \        a(i) = i * 2\n      enddo\n      chk = 0.0\n\
     \      do i = 1, n\n        chk = chk + a(i)\n      enddo\n\
     \      print *, 'chk:', chk\n      end\n"
  in
  check_str "deterministic doacross passes" "ok"
    (Differ.kind_of (run_src src))

let test_differ_reject () =
  let src =
    "      program main\n      integer a(8)\nc$distribute a(cyclic(0))\n\
     \      end\n"
  in
  check_str "compile error classifies as reject" "reject"
    (Differ.kind_of (run_src src))

let test_differ_fail_agreement () =
  (* an out-of-bounds access must be a diagnosed user error on every leg,
     which the driver reports as Fail — not a divergence *)
  let src =
    "      program main\n      integer i, n\n      parameter (n = 4)\n\
     \      real*8 a(n)\n      do i = 1, n\n        a(i) = i\n      enddo\n\
     \      a(1) = a(n + 1)\n      end\n"
  in
  check_str "agreed runtime error is fail" "fail" (Differ.kind_of (run_src src))

let test_differ_chaos_failure () =
  (* seed 0 under --fault runs the chaos leg; this program fails before
     its first memory access, so no wakeup is lost and the chaos leg ends
     in the program's own error, which is no fault of the engine *)
  let src =
    "      program main\n      integer i, j\n      i = 0\n\
     \      j = 7 / i\n      print *, j\n      end\n"
  in
  let opts = { (Differ.default ~seed:0) with Differ.fault = true } in
  check_str "chaos leg keeps an agreed failure" "fail"
    (Differ.kind_of (Differ.run opts [ ("t.pf", src) ]))

let test_differ_timeout () =
  let src =
    "      program main\n      integer i, j, k, n, m\n\
     \      parameter (n = 150)\n      m = 0\n      do i = 1, n\n\
     \        do j = 1, n\n          do k = 1, n\n            m = m + 1\n\
     \          enddo\n        enddo\n      enddo\n      print *, 'm:', m\n\
     \      end\n"
  in
  check_str "pathological nest hits the watchdog" "timeout"
    (Differ.kind_of (run_src src))

(* ------------------------------------------------------------------ *)
(* Shrinker: must converge, keep the verdict, and shrink weight. *)

let test_shrinker_converges () =
  let spec = Gen.generate ~seed:11 () in
  (* pretend any program that still prints something "fails": the shrinker
     must converge to a small spec whose render still has a print *)
  let has_print c =
    List.exists
      (fun (_, src) ->
        let rec contains i =
          i + 5 <= String.length src
          && (String.sub src i 5 = "print" || contains (i + 1))
        in
        contains 0)
      (Spec.render c)
  in
  check_bool "witness fails the predicate" true (has_print spec);
  let mini = Shrink.minimize ~still_fails:has_print spec in
  check_bool "minimized still fails" true (has_print mini);
  check_bool "minimized not larger" true
    (Shrink.weight mini <= Shrink.weight spec);
  check_int "minimized is a single file" 1 (List.length (Spec.render mini))

(* ------------------------------------------------------------------ *)
(* Triage: bucketing is by verdict kind + minimized-source digest; the
   same root cause reported twice must dedup, distinct ones must not. *)

let test_triage_dedup () =
  let t = Triage.create () in
  let fresh =
    Triage.note t ~bucket:"diverged:values" ~seed:1 ~detail:"d1" ~source:"s1"
  in
  check_bool "first witness is new" true fresh;
  let dup =
    Triage.note t ~bucket:"diverged:values" ~seed:2 ~detail:"d2" ~source:"s1"
  in
  check_bool "same bucket+source dedups" false dup;
  let other_bucket =
    Triage.note t ~bucket:"diverged:prints" ~seed:3 ~detail:"d3" ~source:"s1"
  in
  check_bool "same source, different kind is a new root cause" true
    other_bucket;
  let other_src =
    Triage.note t ~bucket:"diverged:values" ~seed:4 ~detail:"d4" ~source:"s2"
  in
  check_bool "same kind, different source is a new root cause" true other_src;
  check_int "three root causes" 3 (List.length (Triage.entries t));
  check_int "four failures total" 4 (Triage.total t);
  let first = List.hd (Triage.entries t) in
  check_int "first root cause counted twice" 2 first.Triage.count;
  check_int "first witness seed retained" 1 first.Triage.seed

(* ------------------------------------------------------------------ *)
(* Corpus: write → load → replay round-trip. *)

let test_corpus_roundtrip () =
  let dir = Filename.temp_file "pflfuzz" "" in
  Sys.remove dir;
  let src =
    "      program main\n      integer a(8)\nc$distribute a(cyclic(0))\n\
     \      end\n"
  in
  let _path =
    Corpus.write_case ~dir ~seed:42 ~bucket:"reject" ~expect:"reject"
      ~source:src
  in
  match Corpus.load ~dir with
  | [ c ] ->
      check_int "seed recovered" 42 c.Corpus.seed;
      check_str "expectation recovered" "reject" c.Corpus.expect;
      (match Corpus.replay (Differ.default ~seed:42) c with
      | Ok () -> ()
      | Error m -> Alcotest.failf "replay mismatch: %s" m);
      Sys.remove c.Corpus.path;
      Sys.rmdir dir
  | cs -> Alcotest.failf "expected 1 corpus case, got %d" (List.length cs)

(* A file without a seed header is seeded by its name: two such files get
   distinct seeds (so distinct flags legs), the same ones on every load. *)
let test_corpus_headerless_seeds () =
  let dir = Filename.temp_file "pflfuzz" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let src = "      program main\n      print *, 1\n      end\n" in
  List.iter
    (fun f ->
      let oc = open_out (Filename.concat dir f) in
      output_string oc src;
      close_out oc)
    [ "a.pf"; "b.pf" ];
  let seeds () = List.map (fun c -> c.Corpus.seed) (Corpus.load ~dir) in
  let first = seeds () in
  (match first with
  | [ a; b ] -> check_bool "distinct seeds" true (a <> b)
  | l -> Alcotest.failf "expected 2 corpus cases, got %d" (List.length l));
  Alcotest.(check (list int)) "same seeds on a second load" first (seeds ());
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) [ "a.pf"; "b.pf" ];
  Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Diag.code stability: triage buckets key on these strings, so renaming
   one silently splits or merges historical corpora. *)

let test_diag_codes_stable () =
  let open Ddsm_check in
  check_str "user" "user" (Diag.code (Diag.user "x"));
  check_str "internal" "internal" (Diag.code (Diag.internal "x"));
  check_bool "internal is internal" true (Diag.is_internal (Diag.internal "x"));
  check_bool "user is not internal" false (Diag.is_internal (Diag.user "x"))

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "well-formed over 50 seeds" `Quick
            test_generator_well_formed;
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
        ] );
      ( "differ",
        [
          Alcotest.test_case "pass" `Quick test_differ_pass;
          Alcotest.test_case "reject" `Quick test_differ_reject;
          Alcotest.test_case "agreed failure" `Quick test_differ_fail_agreement;
          Alcotest.test_case "agreed failure, chaos leg" `Quick
            test_differ_chaos_failure;
          Alcotest.test_case "timeout" `Quick test_differ_timeout;
        ] );
      ( "shrinker",
        [ Alcotest.test_case "converges" `Quick test_shrinker_converges ] );
      ( "triage",
        [ Alcotest.test_case "dedup" `Quick test_triage_dedup ] );
      ( "corpus",
        [
          Alcotest.test_case "roundtrip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "headerless seeds" `Quick
            test_corpus_headerless_seeds;
        ] );
      ( "diag",
        [ Alcotest.test_case "codes stable" `Quick test_diag_codes_stable ] );
    ]

(* Inspector-executor oracle: the transformed irregular loop must be
   bit-identical to the naive indirect loop over adversarial index
   vectors (duplicates, out-of-order, clustered, full-range), serial and
   parallel nests; injected bulk-fetch
   failures (gather-fail=N) must retry, fall back per element, and leave
   the results untouched; the schedule cache must inspect once across
   repeated sweeps and re-inspect when the index array or the target's
   layout changes. *)

open Ddsm_ir
open Ddsm_frontend
open Ddsm_sema
open Ddsm_transform
open Ddsm_exec
module Config = Ddsm_machine.Config
module Pagetable = Ddsm_machine.Pagetable
module Rt = Ddsm_runtime.Rt
module Fault = Ddsm_check.Fault

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let naive_flags = { Flags.all_on with Flags.inspector = false }

let build ?(flags = Flags.all_on) src =
  match Parser.parse_file ~fname:"t.pf" src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok f -> (
      match Sema.analyse_file f with
      | Error es -> Alcotest.failf "sema: %s" (String.concat "; " es)
      | Ok envs ->
          let routines =
            List.map
              (fun (env : Sema.env) ->
                let code = Pipeline.run flags env in
                (env.Sema.routine.Decl.rname, { Prog.env; code }))
              envs
          in
          let main =
            List.find
              (fun (env : Sema.env) ->
                env.Sema.routine.Decl.rkind = Decl.Program)
              envs
          in
          Prog.create routines ~main:main.Sema.routine.Decl.rname)

let run ?flags ?fault ?observers ?(nprocs = 4) src =
  let prog = build ?flags src in
  let cfg = Config.scaled ~nprocs () in
  let rt =
    Rt.create cfg ~policy:Pagetable.First_touch ~heap_words:(1 lsl 20) ?fault ()
  in
  match Engine.run prog ~rt ~checks:true ~bounds:true ?observers () with
  | Ok o -> (o, rt)
  | Error m -> Alcotest.failf "runtime error: %s" (Ddsm_check.Diag.to_string m)

let prints o = String.concat "\n" o.Engine.prints

(* bulk gather fetch attempts the run's fault counts saw *)
let fetches rt =
  Fault.count (Ddsm_machine.Memsys.faults rt.Rt.mem) Fault.Gather_fetch

(* ------------------------------------------------------------------ *)
(* the generated program: fill a and the index vector with literals,
   run the indirect loop (serial or doacross), print every element *)

type form = Plain | Scaled | Shifted

type case = {
  n : int;  (** index values range over 1..n *)
  idxs : int array;
  form : form;
  par : bool;
}

(* target extent covering the subscript range of each form *)
let asize c =
  match c.form with
  | Plain -> c.n
  | Scaled -> 2 * c.n  (* a(2*ix(i) - 1) *)
  | Shifted -> c.n + 3 (* a(ix(i) + 3) *)

let subscript = function
  | Plain -> "ix(i)"
  | Scaled -> "2*ix(i) - 1"
  | Shifted -> "ix(i) + 3"

let src_of c =
  let m = Array.length c.idxs in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "      program t\n";
  add "      integer i\n";
  add "      real*8 a(%d), y(%d)\n" (asize c) m;
  add "      integer ix(%d)\n" m;
  add "c$distribute a(block), y(block), ix(block)\n";
  add "      do i = 1, %d\n" (asize c);
  add "        a(i) = 0.5 * i + 1.0\n";
  add "      enddo\n";
  Array.iteri (fun i v -> add "      ix(%d) = %d\n" (i + 1) v) c.idxs;
  if c.par then add "c$doacross local(i) affinity(i) = data(y(i))\n";
  add "      do i = 1, %d\n" m;
  add "        y(i) = 3.0 * a(%s) + 0.25 * i\n" (subscript c.form);
  add "      enddo\n";
  add "      do i = 1, %d\n" m;
  add "        print *, y(i)\n";
  add "      enddo\n";
  add "      end\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* generators: the four adversarial index-vector shapes *)

let gen_case =
  QCheck.Gen.(
    let* n = int_range 4 32 in
    let* m = int_range 4 40 in
    let* form =
      frequency [ (3, return Plain); (1, return Scaled); (1, return Shifted) ]
    in
    let* par = bool in
    let* idxs =
      frequency
        [
          (* duplicates, any order *)
          (3, array_size (return m) (int_range 1 n));
          (* clustered in a 3-element window *)
          ( 2,
            let* c = int_range 1 (max 1 (n - 2)) in
            array_size (return m) (int_range c (min n (c + 2))) );
          (* full-range permutation: every element exactly once, shuffled *)
          ( 2,
            let+ l = shuffle_l (List.init n (fun i -> i + 1)) in
            Array.of_list l );
          (* descending (out-of-order w.r.t. home walk) *)
          ( 1,
            let+ a = array_size (return m) (int_range 1 n) in
            Array.sort (fun x y -> compare y x) a;
            a );
        ]
    in
    return { n; idxs; form; par })

let print_case c =
  Printf.sprintf "{n=%d; par=%b; form=%s; ix=[%s]}" c.n c.par
    (match c.form with
    | Plain -> "plain"
    | Scaled -> "scaled"
    | Shifted -> "shifted")
    (String.concat ";" (Array.to_list (Array.map string_of_int c.idxs)))

let arb_case = QCheck.make ~print:print_case gen_case

let prop_oracle =
  QCheck.Test.make ~count:60
    ~name:"inspector = naive over adversarial index vectors"
    arb_case
    (fun c ->
      let src = src_of c in
      let naive, _ = run ~flags:naive_flags src in
      let insp, _ = run src in
      prints naive = prints insp)

(* ------------------------------------------------------------------ *)
(* schedule-cache behaviour and fault injection on a 2-sweep kernel *)

let sweep_src ?(between = "") ?(sweeps = 2) () =
  Printf.sprintf
    {|      program t
      integer i, s
      real*8 a(64), y(16), t
      integer ix(16)
c$distribute a(block), y(block), ix(block)
      do i = 1, 64
        a(i) = 0.5 * i
      enddo
      do i = 1, 16
        ix(i) = mod(i * 7, 64) + 1
        y(i) = 0.0
      enddo
      do s = 1, %d
%s
c$doacross local(i) affinity(i) = data(y(i))
        do i = 1, 16
          y(i) = y(i) + a(ix(i))
        enddo
      enddo
      t = 0.0
      do i = 1, 16
        t = t + y(i)
      enddo
      print *, 'sum:', t
      end
|}
    sweeps between

let test_cache_reuse () =
  let o, rt = run (sweep_src ()) in
  check_int "one inspection across two sweeps" 1 rt.Rt.gather_inspections;
  check_int "one bulk fetch per sweep" 2 (fetches rt);
  let naive, _ = run ~flags:naive_flags (sweep_src ()) in
  check_string "result matches naive" (prints naive) (prints o)

let test_index_write_invalidates () =
  (* rewriting the index array between sweeps bumps its version, so the
     second sweep must re-inspect -- and still match naive *)
  let between = "        ix(3) = mod(s * 11, 64) + 1" in
  let o, rt = run (sweep_src ~between ()) in
  check_int "re-inspects after index write" 2 rt.Rt.gather_inspections;
  let naive, _ = run ~flags:naive_flags (sweep_src ~between ()) in
  check_string "result matches naive" (prints naive) (prints o)

let test_redistribute_invalidates () =
  (* moving the target's pages mid-run goes through Rt.redistribute,
     which bumps the version: sweep 1 inspects, sweep 2 (after the
     block->cyclic move) re-inspects, sweep 3 reuses the cyclic schedule *)
  let between =
    "        if (s .eq. 2) then\nc$redistribute a(cyclic)\n        endif"
  in
  let o, rt = run (sweep_src ~between ~sweeps:3 ()) in
  check_int "re-inspects after redistribute" 2 rt.Rt.gather_inspections;
  check_int "three bulk fetches" 3 (fetches rt);
  let naive, _ = run ~flags:naive_flags (sweep_src ~between ~sweeps:3 ()) in
  check_string "result matches naive" (prints naive) (prints o)

let test_gather_fail_all () =
  (* gather-fail=1: every bulk fetch fails; each execution retries the
     bounded number of times, then falls back to per-element fetches --
     results and homes unchanged *)
  let fault = Fault.make ~gather_fail:1 () in
  let fallbacks = ref [] in
  let observe = function
    | Rt.Gather { step = Rt.Fallback; retries; _ } ->
        fallbacks := retries :: !fallbacks
    | _ -> ()
  in
  let o, rt = run ~fault ~observers:[ observe ] (sweep_src ()) in
  let clean, _ = run (sweep_src ()) in
  check_string "fault-free result" (prints clean) (prints o);
  check_int "3 failed attempts per sweep" 6 rt.Rt.gather_retries;
  check_int "per-element fallback each sweep" 2 rt.Rt.gather_fallbacks;
  (* the retry rule: a fallback reports every failed attempt *)
  Alcotest.(check (list int)) "each fallback reports 3 retries" [ 3; 3 ]
    !fallbacks

let test_gather_fail_later () =
  (* gather-fail=2: fetch 1 succeeds, everything later fails.  Sweep 2
     burns its 3 attempts (fetches 2..4) and falls back once. *)
  let fault = Fault.make ~gather_fail:2 () in
  let o, rt = run ~fault (sweep_src ()) in
  let clean, _ = run (sweep_src ()) in
  check_string "fault-free result" (prints clean) (prints o);
  check_int "4 fetch attempts counted" 4 (fetches rt);
  check_int "3 retries" 3 rt.Rt.gather_retries;
  check_int "1 fallback" 1 rt.Rt.gather_fallbacks

(* A cache hit allocates no key: a serial sweep re-runs a one-slot,
   three-dimensional gather [sweeps] times, so the key (two versions and
   six bounds) would weigh more than the executor's one scratch load.
   Minor words per sweep, over the whole run (compile, elaboration,
   execution); the bound sits about 10% above the value measured with
   OCaml 5.1.1 (beside it). A key built on every hit (bound arrays and a
   tuple) costs about 29 words per sweep, far past it. *)
let test_hit_allocates_no_key () =
  let sweeps = 20_000 in
  let src =
    Printf.sprintf
      {|      program t
      integer i, j, k, s, n, m
      integer a(8), ix(4)
c$distribute a(block)
      do i = 1, 8
        a(i) = i
      enddo
      do i = 1, 4
        ix(i) = 9 - (2 * i)
      enddo
      n = 0
      do s = 1, %d
        m = s
        do k = 1, 1
          do j = 1, 1
            do i = 1, 1
              n = n + a(ix(i))
            enddo
          enddo
        enddo
      enddo
      print *, n
      end
|}
      sweeps
  in
  let before = Gc.minor_words () in
  let o, rt = run ~nprocs:1 src in
  let per_sweep = (Gc.minor_words () -. before) /. float_of_int sweeps in
  check_string "sum" (string_of_int (7 * sweeps)) (String.trim (prints o));
  check_int "one inspection" 1 rt.Rt.gather_inspections;
  check_int "one bulk fetch per sweep" sweeps (fetches rt);
  let bound = 25.5 (* 23.2 *) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per sweep (bound %.2f)" per_sweep bound)
    true (per_sweep <= bound)

let test_fault_spec_roundtrip () =
  let t = Fault.make ~gather_fail:3 () in
  match Fault.of_spec (Fault.to_spec t) with
  | Ok t' ->
      Alcotest.(check bool) "round-trips" true (Fault.to_spec t' = Fault.to_spec t)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "irregular"
    [
      ( "oracle",
        [ QCheck_alcotest.to_alcotest ~verbose:false prop_oracle ] );
      ( "schedule-cache",
        [
          Alcotest.test_case "reused across sweeps" `Quick test_cache_reuse;
          Alcotest.test_case "index write invalidates" `Quick
            test_index_write_invalidates;
          Alcotest.test_case "redistribute invalidates" `Quick
            test_redistribute_invalidates;
          Alcotest.test_case "a hit allocates no key" `Quick
            test_hit_allocates_no_key;
        ] );
      ( "gather-fail",
        [
          Alcotest.test_case "all fetches fail" `Quick test_gather_fail_all;
          Alcotest.test_case "later fetches fail" `Quick test_gather_fail_later;
          Alcotest.test_case "spec round-trip" `Quick test_fault_spec_roundtrip;
        ] );
    ]

(* Tests for the lib/check robustness layer: fault plans, structured
   diagnostics, invariant audits, heap canaries and the induced-deadlock
   watchdog path. *)

module Fault = Ddsm_check.Fault
module Diag = Ddsm_check.Diag
module Audit = Ddsm_check.Audit
module Ddsm = Ddsm_core.Ddsm
module Rt = Ddsm_runtime.Rt
module Darray = Ddsm_runtime.Darray
module Heap = Ddsm_runtime.Heap
module K = Ddsm_dist.Kind

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fault plans *)

let test_fault_spec_roundtrip () =
  let f =
    Fault.make ~seed:7
      ~slow_nodes:[ (0, 80); (2, 30) ]
      ~hot_dirs:[ (1, 40) ]
      ~slow_links:[ ((0, 3), 25) ]
      ~tlb_flush_period:512 ~redist_fail:2 ~lose_wakeup:9 ~drop_barrier:3 ()
  in
  (match Fault.of_spec (Fault.to_spec f) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok f' -> check_bool "roundtrip equal" true (f = f'));
  (match Fault.of_spec "none" with
  | Ok f -> check_bool "none" true (Fault.is_none f)
  | Error e -> Alcotest.fail e);
  (match Fault.of_spec "" with
  | Ok f -> check_bool "empty" true (Fault.is_none f)
  | Error e -> Alcotest.fail e);
  check_bool "garbage rejected" true
    (Result.is_error (Fault.of_spec "bogus=1"));
  check_bool "bad int rejected" true (Result.is_error (Fault.of_spec "tlb=x"))

let test_fault_random_deterministic () =
  let a = Fault.random ~seed:42 ~nnodes:4
  and b = Fault.random ~seed:42 ~nnodes:4 in
  check_bool "same seed, same plan" true (a = b);
  check_int "no chaos from random" 0 a.Fault.lose_wakeup;
  check_int "random never drops barriers" 0 a.Fault.drop_barrier;
  (* across many seeds, at least two distinct plans must appear *)
  let distinct = Hashtbl.create 16 in
  for s = 0 to 19 do
    Hashtbl.replace distinct (Fault.random ~seed:s ~nnodes:4) ()
  done;
  check_bool "seeds vary the plan" true (Hashtbl.length distinct > 1)

(* count [n] events of kind [ev] on fresh counts of [plan]: which fail *)
let counted_in c ev n = List.init n (fun _ -> Fault.fails c ev)
let counted plan ev n = counted_in (Fault.counts plan ~nprocs:1) ev n
let check_fails = Alcotest.(check (list bool))

let test_fault_queries () =
  let f =
    Fault.make
      ~slow_nodes:[ (1, 100) ]
      ~hot_dirs:[ (0, 40) ]
      ~slow_links:[ ((0, 2), 30) ]
      ~tlb_flush_period:4 ~redist_fail:2 ()
  in
  check_int "slow node" 100 (Fault.mem_extra f ~node:1);
  check_int "other node" 0 (Fault.mem_extra f ~node:0);
  check_int "hot dir" 40 (Fault.dir_extra f ~home:0);
  check_int "link a-b" 30 (Fault.link_extra f ~a:0 ~b:2);
  check_int "link symmetric" 30 (Fault.link_extra f ~a:2 ~b:0);
  check_int "self link free" 0 (Fault.link_extra f ~a:2 ~b:2);
  (* redist-fail=2: attempts 1 and 2 fail, 3 succeeds *)
  check_fails "redist attempts" [ true; true; false; false ]
    (counted f Fault.Redist_attempt 4);
  (* tlb=4: each processor's 4th and 8th translations flush, counted per
     processor *)
  let c = Fault.counts f ~nprocs:2 in
  let p0 = List.init 8 (fun _ -> Fault.flush_tlb c ~proc:0) in
  check_fails "proc 0 flushes at its 4th and 8th"
    [ false; false; false; true; false; false; false; true ] p0;
  check_fails "proc 1 counts its own" [ false; false; false; true ]
    (List.init 4 (fun _ -> Fault.flush_tlb c ~proc:1));
  let n = Fault.counts Fault.none ~nprocs:1 in
  check_bool "none never flushes" false
    (List.exists Fun.id (List.init 64 (fun _ -> Fault.flush_tlb n ~proc:0)));
  check_bool "none never fails" false (Fault.fails n Fault.Redist_attempt);
  let c = Fault.counts f ~nprocs:1 in
  ignore (counted_in c Fault.Redist_attempt 4);
  check_int "every attempt is counted" 4 (Fault.count c Fault.Redist_attempt)

(* the first failing event of each persistent schedule: N = 2 lets the
   first event through and fails the 2nd onward *)
let test_fault_first_failure () =
  check_fails "gather-fail=2" [ false; true; true; true ]
    (counted (Fault.make ~gather_fail:2 ()) Fault.Gather_fetch 4);
  check_fails "migrate-fail=2" [ false; true; true; true ]
    (counted (Fault.make ~migrate_fail:2 ()) Fault.Migration 4);
  check_fails "gather-fail=1 fails the first" [ true; true ]
    (counted (Fault.make ~gather_fail:1 ()) Fault.Gather_fetch 2);
  check_fails "lose-wakeup=3 loses only the 3rd" [ false; false; true; false ]
    (counted (Fault.make ~lose_wakeup:3 ()) Fault.Wakeup 4);
  check_fails "off: nothing fails" [ false; false ]
    (counted Fault.none Fault.Migration 2)

let test_fault_drop_barrier () =
  let f = Fault.make ~drop_barrier:2 () in
  check_fails "only the 2nd arrival dropped" [ false; true; false ]
    (counted f Fault.Barrier_arrival 3);
  check_fails "none never drops" [ false ]
    (counted Fault.none Fault.Barrier_arrival 1);
  (match Fault.of_spec "drop-barrier=5" with
  | Ok f' -> check_int "spec parses" 5 f'.Fault.drop_barrier
  | Error e -> Alcotest.fail e);
  check_bool "negative rejected" true
    (Result.is_error (Fault.of_spec "drop-barrier=-1"))

(* ------------------------------------------------------------------ *)
(* Diagnostics *)

let test_diag_rendering () =
  let u = Diag.user "bad argument" in
  check_string "user headline" "bad argument" (Diag.headline u);
  check_string "bare user renders as before" "bad argument" (Diag.to_string u);
  check_bool "user not internal" false (Diag.is_internal u);
  let i = Diag.internal "index out of bounds" in
  check_bool "internal flagged" true (Diag.is_internal i);
  check_bool "internal labelled" true
    (String.length (Diag.headline i) > String.length "index out of bounds")

(* ------------------------------------------------------------------ *)
(* End-to-end: faults perturb cycles, never output; audits; deadlock *)

let src_sum =
  {|
      program s
      integer n, i
      parameter (n = 512)
      real*8 a(n), s
c$distribute a(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = mod(i * 13, 17)
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i)
      enddo
      print *, s
      end
|}

let run_structured ?fault ?audit ?(nprocs = 4) src =
  match Ddsm.compile_source ~fname:"t.pf" src with
  | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)
  | Ok obj -> (
      match Ddsm.link [ obj ] with
      | Error es -> Alcotest.failf "link: %s" (String.concat "; " es)
      | Ok (prog, _) ->
          let rt = Ddsm.make_rt ?fault ~nprocs () in
          (Ddsm.run prog ~rt ?audit (), rt))

let test_fault_changes_cycles_not_output () =
  let clean, _ = run_structured src_sum in
  let fault =
    Fault.make ~slow_nodes:[ (0, 200) ] ~tlb_flush_period:32 ()
  in
  let faulty, _ = run_structured ~fault src_sum in
  match (clean, faulty) with
  | Ok c, Ok f ->
      Alcotest.(check (list string))
        "same output" c.Ddsm.Engine.prints f.Ddsm.Engine.prints;
      check_bool "faults cost cycles" true
        (f.Ddsm.Engine.cycles > c.Ddsm.Engine.cycles)
  | Error d, _ | _, Error d -> Alcotest.fail (Diag.to_string d)

let test_audit_clean_run () =
  match fst (run_structured ~audit:true src_sum) with
  | Ok _ -> ()
  | Error d -> Alcotest.failf "audit should pass: %s" (Diag.to_string d)

let test_canary_catches_overrun () =
  let rt = Ddsm.make_rt ~nprocs:4 () in
  let a =
    Rt.declare_regular rt ~name:"A" ~elem:Darray.Real ~extents:[| 64 |]
      ~kinds:[| K.Block |] ()
  in
  check_bool "clean before tamper" true (Rt.audit rt = []);
  (* clobber one guard word through the real plane, as a runaway store
     past the end of the array would *)
  let addr, _ = List.hd a.Darray.canaries in
  Heap.set_real rt.Rt.heap addr 0.0;
  let vs = Rt.audit rt in
  check_bool "violation reported" true (vs <> []);
  check_bool "names the invariant" true
    (List.exists (fun v -> v.Audit.invariant = "heap-canary") vs)

let test_lost_wakeup_diagnosed_as_deadlock () =
  let fault = Fault.make ~lose_wakeup:40 () in
  match fst (run_structured ~fault ~nprocs:4 src_sum) with
  | Ok _ -> Alcotest.fail "expected an induced deadlock"
  | Error d ->
      check_bool "deadlock reason" true (d.Diag.reason = Diag.Deadlock);
      check_bool "blocked tasks named" true (d.Diag.blocked <> []);
      check_bool "per-proc clocks present" true (d.Diag.proc_clocks <> []);
      (* somewhere in the forest sits the task whose wakeup was dropped *)
      let rec any p (v : Diag.task_view) =
        p v || List.exists (any p) v.Diag.tv_children
      in
      check_bool "a task is blocked on its memory wakeup" true
        (List.exists
           (any (fun v -> v.Diag.tv_state = Diag.Blocked_mem))
           d.Diag.blocked);
      let dump = Diag.to_string d in
      check_bool "dump names blocked tasks" true
        (String.length dump > String.length (Diag.headline d))

(* Events are counted only under a plan that schedules them: a fault-free
   run counts no wakeup and no translation, while under lose-wakeup=3 the
   third wakeup, the one after the third access, is still the one lost *)
let test_fault_counts_only_scheduled () =
  let mem (rt : Rt.t) = Ddsm_machine.Memsys.faults rt.Rt.mem in
  (match run_structured ~nprocs:4 src_sum with
  | Ok o, rt ->
      check_bool "the run made accesses" true
        (Ddsm_machine.Counters.accesses o.Ddsm.Engine.counters > 0);
      check_int "no wakeup counted" 0 (Fault.count (mem rt) Fault.Wakeup);
      for proc = 0 to 3 do
        check_int
          (Printf.sprintf "no translation counted on p%d" proc)
          0
          (Fault.translations (mem rt) ~proc)
      done
  | Error d, _ -> Alcotest.fail (Diag.to_string d));
  let prog =
    match Ddsm.compile_source ~fname:"t.pf" src_sum with
    | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)
    | Ok obj -> (
        match Ddsm.link [ obj ] with
        | Error es -> Alcotest.failf "link: %s" (String.concat "; " es)
        | Ok (prog, _) -> prog)
  in
  let rt = Ddsm.make_rt ~fault:(Fault.make ~lose_wakeup:3 ()) ~nprocs:1 () in
  let accesses = ref 0 and lost_after = ref [] in
  let observe = function
    | Rt.Access _ -> incr accesses
    | Rt.Mark { mark = Rt.Wakeup_lost; _ } -> lost_after := !accesses :: !lost_after
    | _ -> ()
  in
  (match Ddsm.Engine.run prog ~rt ~observers:[ observe ] () with
  | Ok _ -> Alcotest.fail "expected an induced deadlock"
  | Error d -> check_bool "deadlock" true (d.Diag.reason = Diag.Deadlock));
  Alcotest.(check (list int)) "one wakeup lost, after the 3rd access" [ 3 ]
    !lost_after;
  check_int "counting stopped with the lost one" 3
    (Fault.count (mem rt) Fault.Wakeup);
  check_int "still no translation counted" 0 (Fault.translations (mem rt) ~proc:0)

let () =
  Alcotest.run "check"
    [
      ( "fault",
        [
          Alcotest.test_case "spec roundtrip" `Quick test_fault_spec_roundtrip;
          Alcotest.test_case "random deterministic" `Quick
            test_fault_random_deterministic;
          Alcotest.test_case "query semantics" `Quick test_fault_queries;
          Alcotest.test_case "drop-barrier" `Quick test_fault_drop_barrier;
          Alcotest.test_case "first failing event" `Quick
            test_fault_first_failure;
          Alcotest.test_case "only scheduled events counted" `Quick
            test_fault_counts_only_scheduled;
        ] );
      ( "diag",
        [ Alcotest.test_case "rendering" `Quick test_diag_rendering ] );
      ( "robustness",
        [
          Alcotest.test_case "faults: cycles only" `Quick
            test_fault_changes_cycles_not_output;
          Alcotest.test_case "audit clean run" `Quick test_audit_clean_run;
          Alcotest.test_case "canary catches overrun" `Quick
            test_canary_catches_overrun;
          Alcotest.test_case "lost wakeup -> deadlock diag" `Quick
            test_lost_wakeup_diagnosed_as_deadlock;
        ] );
    ]

(* Tests for the happens-before sanitizer: vector-clock ordering through
   fork/join/barrier releases, the FastTrack read-epoch/read-vector
   promotion, and the race vs line/page false-sharing classification —
   plus end-to-end runs through the engine with a seeded barrier drop. *)

open Ddsm_machine
module Sanitize = Ddsm_sanitize.Sanitize
module Rt = Ddsm_runtime.Rt
module Ddsm = Ddsm_core.Ddsm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let str_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let ev ~proc ~addr ~write : Memsys.access_event =
  {
    Memsys.ev_proc = proc;
    ev_addr = addr;
    ev_write = write;
    ev_now = 0;
    ev_tlb = 0;
    ev_hit = 1;
    ev_local = 0;
    ev_remote = 0;
    ev_contention = 0;
    ev_coherence = 0;
    ev_tlb_flushed = false;
  }

(* a sanitizer for a toy machine: 128-byte L2 lines, 1024-byte pages *)
let mk ?(nprocs = 4) () =
  Sanitize.create ~nprocs ~line_bytes:128 ~page_bytes:1024 ()

let acc t ~proc ~addr ~write =
  Sanitize.observe t
    (Rt.Access { region = Printf.sprintf "r:%d" proc; ev = ev ~proc ~addr ~write })

let fork t ~nprocs =
  Sanitize.observe t (Rt.Fork { region = "par"; nprocs; proc = 0; now = 0 })

let join t = Sanitize.observe t (Rt.Join { region = "par"; proc = 0; now = 0 })
(* a barrier release of the processors [procs] *)
let release t procs = Sanitize.observe t (Rt.Barrier { procs; now = 0 })

let alloc t ~name ~word_ranges =
  Sanitize.observe t (Rt.Alloc { name; word_ranges })

let n_races t = List.length (Sanitize.races t)
let n_fs t = List.length (Sanitize.false_sharing t)

(* ------------------------------------------------------------------ *)
(* Ordering through structural events *)

let test_serial_no_race () =
  let t = mk () in
  acc t ~proc:0 ~addr:0 ~write:true;
  acc t ~proc:0 ~addr:0 ~write:false;
  acc t ~proc:0 ~addr:0 ~write:true;
  check_int "same-proc accesses never race" 0 (n_races t)

let test_fork_orders_master_writes () =
  let t = mk () in
  acc t ~proc:0 ~addr:0 ~write:true;
  fork t ~nprocs:4;
  (* every worker reads what the master wrote before the fork *)
  for p = 0 to 3 do
    acc t ~proc:p ~addr:0 ~write:false
  done;
  join t;
  (* and the master may write again after the join *)
  acc t ~proc:0 ~addr:0 ~write:true;
  check_int "fork/join edges order everything" 0 (n_races t)

let test_unordered_write_read_races () =
  let t = mk () in
  let w = 8 * 11 in
  fork t ~nprocs:2;
  acc t ~proc:0 ~addr:w ~write:true;
  acc t ~proc:1 ~addr:w ~write:false;
  join t;
  check_int "concurrent write/read is a race" 1 (n_races t);
  let r = List.hd (Sanitize.races t) in
  check_bool "kind" true (r.Sanitize.rep_kind = Sanitize.Race);
  check_int "first is the writer" 0 r.Sanitize.rep_first_proc;
  check_bool "first access is a write" true r.Sanitize.rep_first_write;
  check_int "second is the reader" 1 r.Sanitize.rep_second_proc

let test_unordered_write_write_races () =
  let t = mk () in
  fork t ~nprocs:2;
  acc t ~proc:0 ~addr:16 ~write:true;
  acc t ~proc:1 ~addr:16 ~write:true;
  join t;
  check_int "concurrent write/write is a race" 1 (n_races t)

let test_concurrent_reads_fine () =
  let t = mk () in
  acc t ~proc:0 ~addr:24 ~write:true;
  fork t ~nprocs:4;
  for p = 0 to 3 do
    acc t ~proc:p ~addr:24 ~write:false
  done;
  join t;
  (* the join absorbs every read; a later master write is ordered *)
  acc t ~proc:0 ~addr:24 ~write:true;
  check_int "reads never race with reads" 0 (n_races t)

let test_read_vector_catches_all_readers () =
  (* FastTrack promotion: two concurrent readers force the read vector;
     an unordered write must race against a reader recorded only there *)
  let t = mk () in
  fork t ~nprocs:3;
  acc t ~proc:0 ~addr:32 ~write:false;
  acc t ~proc:1 ~addr:32 ~write:false;
  acc t ~proc:2 ~addr:32 ~write:true;
  join t;
  (* both readers conflict with the write; reports dedup by region pair *)
  check_bool "read-vector write race detected" true (n_races t >= 1)

let test_barrier_orders_phases () =
  let t = mk ~nprocs:2 () in
  fork t ~nprocs:2;
  acc t ~proc:0 ~addr:0 ~write:true;
  acc t ~proc:1 ~addr:8 ~write:true;
  release t [ 0; 1 ];
  (* cross reads of the other's phase-1 write *)
  acc t ~proc:0 ~addr:8 ~write:false;
  acc t ~proc:1 ~addr:0 ~write:false;
  join t;
  check_int "barrier orders phase 1 before phase 2" 0 (n_races t)

let test_dropped_barrier_detected () =
  (* proc 0's arrival was dropped, so the release names only proc 1: proc
     0's phase-2 read keeps phase-1 clocks and must race with proc 1's
     phase-1 write *)
  let t = mk ~nprocs:2 () in
  fork t ~nprocs:2;
  acc t ~proc:0 ~addr:0 ~write:true;
  acc t ~proc:1 ~addr:8 ~write:true;
  acc t ~proc:0 ~addr:8 ~write:false;
  release t [ 1 ];
  acc t ~proc:1 ~addr:0 ~write:false;
  join t;
  check_bool "dropped barrier yields a race" true (n_races t >= 1)

let test_partial_barrier_at_join () =
  (* a worker with no loop iterations finishes without reaching the
     barrier, which then releases the workers that did: their phases stay
     ordered and the idle ones add no false positive *)
  let t = mk ~nprocs:4 () in
  fork t ~nprocs:4;
  (* only procs 0 and 1 have work; 2 and 3 are idle *)
  acc t ~proc:0 ~addr:0 ~write:true;
  acc t ~proc:1 ~addr:8 ~write:true;
  release t [ 1; 0 ];
  acc t ~proc:0 ~addr:8 ~write:false;
  acc t ~proc:1 ~addr:0 ~write:false;
  join t;
  check_int "idle workers don't fake races" 0 (n_races t)

let test_release_orders_only_the_released () =
  (* a processor left out of a release stays unordered with the released
     ones *)
  let t = mk ~nprocs:3 () in
  fork t ~nprocs:3;
  acc t ~proc:2 ~addr:16 ~write:true;
  release t [ 0; 1 ];
  acc t ~proc:0 ~addr:16 ~write:false;
  join t;
  check_int "proc 2 was not released with proc 0" 1 (n_races t);
  let t = mk ~nprocs:2 () in
  fork t ~nprocs:2;
  acc t ~proc:0 ~addr:0 ~write:true;
  (* a redistribution orders nothing *)
  Sanitize.observe t
    (Rt.Redistribute
       {
         array = "a";
         result =
           { Rt.moved = 0; words = 0; rounds = 0; round_words = 0; retries = 0;
             fell_back = false };
         proc = 0;
         now = 0;
       });
  acc t ~proc:1 ~addr:0 ~write:false;
  join t;
  check_int "a redistribution is no barrier" 1 (n_races t)

(* ------------------------------------------------------------------ *)
(* Race vs false-sharing classification *)

let test_line_false_sharing () =
  let t = mk () in
  fork t ~nprocs:2;
  (* distinct words, same 128-byte line *)
  acc t ~proc:0 ~addr:0 ~write:true;
  acc t ~proc:1 ~addr:8 ~write:true;
  join t;
  check_int "no data race" 0 (n_races t);
  check_bool "line false sharing reported" true
    (List.exists
       (fun r -> r.Sanitize.rep_kind = Sanitize.Line_sharing)
       (Sanitize.false_sharing t))

let test_page_false_sharing () =
  let t = mk () in
  fork t ~nprocs:2;
  (* distinct lines, same 1024-byte page *)
  acc t ~proc:0 ~addr:0 ~write:true;
  acc t ~proc:1 ~addr:512 ~write:true;
  join t;
  check_int "no data race" 0 (n_races t);
  check_bool "page false sharing reported" true
    (List.exists
       (fun r -> r.Sanitize.rep_kind = Sanitize.Page_sharing)
       (Sanitize.false_sharing t));
  check_bool "but not line false sharing (different lines)" true
    (List.for_all
       (fun r -> r.Sanitize.rep_kind <> Sanitize.Line_sharing)
       (Sanitize.false_sharing t))

let test_same_word_is_race_not_sharing () =
  let t = mk () in
  fork t ~nprocs:2;
  acc t ~proc:0 ~addr:64 ~write:true;
  acc t ~proc:1 ~addr:64 ~write:true;
  join t;
  check_int "same word: a race" 1 (n_races t);
  check_int "same word: not false sharing" 0 (n_fs t)

let test_ordered_neighbours_no_sharing () =
  let t = mk () in
  (* serial master touches the whole line: ordered, not false sharing *)
  acc t ~proc:0 ~addr:0 ~write:true;
  acc t ~proc:0 ~addr:8 ~write:true;
  fork t ~nprocs:2;
  acc t ~proc:0 ~addr:16 ~write:true;
  release t [ 0; 1 ];
  acc t ~proc:1 ~addr:24 ~write:true;
  join t;
  check_int "ordered neighbour writes are clean" 0 (n_fs t)

let test_array_attribution_and_json () =
  let t = mk () in
  alloc t ~name:"a" ~word_ranges:[ (0, 7) ];
  alloc t ~name:"b" ~word_ranges:[ (8, 15) ];
  fork t ~nprocs:2;
  acc t ~proc:0 ~addr:(8 * 9) ~write:true;
  acc t ~proc:1 ~addr:(8 * 9) ~write:false;
  join t;
  let r = List.hd (Sanitize.races t) in
  Alcotest.(check string) "owning array named" "b" r.Sanitize.rep_array;
  let js = Ddsm.Json.to_string (Sanitize.report_json t) in
  check_bool "json counts the race" true (str_contains js "\"races\":1");
  check_bool "json names the array" true (str_contains js "\"array\":\"b\"")

(* ------------------------------------------------------------------ *)
(* Allocation *)

(* The engine delivers every access as one preallocated [Access] event
   whose fields it refills. Once the words, lines, pages, region, reports
   and profile cells in play have been seen, observing an access must not
   allocate: 10,000 events, four workers on sixteen words of one line, one
   write in eight (so read vectors are promoted and freed), reports
   deduplicated. *)
let test_steady_state_allocates_nothing () =
  let n = 10_000 in
  let ev = ev ~proc:0 ~addr:0 ~write:false in
  let event = Rt.Access { region = "loop:12"; ev } in
  let feed observe =
    for k = 0 to n - 1 do
      ev.Memsys.ev_proc <- k land 3;
      ev.Memsys.ev_addr <- 8 * ((k lsr 2) land 15);
      ev.Memsys.ev_write <- (k * 5) land 7 = 0;
      observe event
    done
  in
  let words_per_event what observe =
    feed observe;
    let before = Gc.minor_words () in
    feed observe;
    let w = (Gc.minor_words () -. before) /. float_of_int n in
    check_bool (Printf.sprintf "%s: %.3f words per access" what w) true (w < 1.0)
  in
  let san = mk () in
  alloc san ~name:"a" ~word_ranges:[ (0, 7) ];
  fork san ~nprocs:4;
  words_per_event "sanitizer" (Sanitize.observe san);
  check_bool "the stream races" true (n_races san > 0);
  let prof = Ddsm_report.Profile.create () in
  Ddsm_report.Profile.observe prof (Rt.Alloc { name = "a"; word_ranges = [ (0, 7) ] });
  words_per_event "profiler" (Ddsm_report.Profile.observe prof)

(* ------------------------------------------------------------------ *)
(* End-to-end through the engine *)

let relax_src =
  "      program relax\n\
  \      integer n, i, j\n\
  \      parameter (n = 8)\n\
  \      real*8 a(n), b(n), s\n\
   c$distribute a(block), b(block)\n\
  \      do i = 1, n\n\
  \        a(i) = i + 1.0\n\
  \        b(i) = 0.0\n\
  \      enddo\n\
   c$doacross local(i, j)\n\
  \      do i = 1, n\n\
  \        a(i) = i + 1.0\n\
   c$barrier\n\
  \        j = i + 1 - n * (i / n)\n\
  \        b(i) = a(j)\n\
  \      enddo\n\
  \      s = 0.0\n\
  \      do i = 1, n\n\
  \        s = s + b(i)\n\
  \      enddo\n\
  \      print *, 'sum:', s\n\
  \      end\n"

let run_relax ?fault ~nprocs () =
  let san =
    Sanitize.create ~nprocs ~line_bytes:128 ~page_bytes:1024 ()
  in
  match Ddsm.run_source ?fault ~nprocs ~sanitize:san relax_src with
  | Error e -> Alcotest.failf "relax run failed: %s" e
  | Ok o -> (san, o)

let test_engine_clean () =
  let san, o = run_relax ~nprocs:8 () in
  check_int "no races with the barrier intact" 0
    (List.length (Sanitize.races san));
  Alcotest.(check (list string)) "output" [ "sum: 44" ] o.Ddsm.Engine.prints

let test_engine_seeded_race () =
  let fault = Ddsm.Fault.make ~drop_barrier:1 () in
  let san, o = run_relax ~fault ~nprocs:8 () in
  check_bool "dropping one barrier arrival is detected" true
    (List.length (Sanitize.races san) >= 1);
  (* the dropped arrival runs on early; relax's values do not depend on
     it *)
  Alcotest.(check (list string))
    "output identical under the fault" [ "sum: 44" ] o.Ddsm.Engine.prints;
  let r = List.hd (Sanitize.races san) in
  check_bool "region label present" true
    (String.length r.Sanitize.rep_first_region > 0)

let test_engine_fewer_iterations_than_procs () =
  (* 8 iterations, 16 processors: half the workers finish without
     reaching the barrier, which counts them as arrived — no deadlock and
     no fabricated races *)
  let san, _ = run_relax ~nprocs:16 () in
  check_int "idle processors: still clean" 0
    (List.length (Sanitize.races san))

let test_engine_disabled_is_free () =
  (* without ?sanitize no probe is installed: same cycles as a bare run *)
  match
    ( Ddsm.run_source ~nprocs:8 relax_src,
      Ddsm.run_source ~nprocs:8 relax_src )
  with
  | Ok a, Ok b -> check_int "deterministic" a.Ddsm.Engine.cycles b.Ddsm.Engine.cycles
  | _ -> Alcotest.fail "bare runs failed"

let test_engine_timing_unchanged_by_sanitizer () =
  let san, o = run_relax ~nprocs:8 () in
  ignore san;
  match Ddsm.run_source ~nprocs:8 relax_src with
  | Error e -> Alcotest.failf "bare run failed: %s" e
  | Ok bare ->
      check_int "sanitizer observes, never perturbs"
        bare.Ddsm.Engine.cycles o.Ddsm.Engine.cycles

let () =
  Alcotest.run "sanitize"
    [
      ( "ordering",
        [
          Alcotest.test_case "serial" `Quick test_serial_no_race;
          Alcotest.test_case "fork edges" `Quick test_fork_orders_master_writes;
          Alcotest.test_case "write/read race" `Quick
            test_unordered_write_read_races;
          Alcotest.test_case "write/write race" `Quick
            test_unordered_write_write_races;
          Alcotest.test_case "reads don't race" `Quick
            test_concurrent_reads_fine;
          Alcotest.test_case "read-vector promotion" `Quick
            test_read_vector_catches_all_readers;
          Alcotest.test_case "barrier orders phases" `Quick
            test_barrier_orders_phases;
          Alcotest.test_case "dropped barrier detected" `Quick
            test_dropped_barrier_detected;
          Alcotest.test_case "partial barrier at join" `Quick
            test_partial_barrier_at_join;
          Alcotest.test_case "release orders only the released" `Quick
            test_release_orders_only_the_released;
        ] );
      ( "classification",
        [
          Alcotest.test_case "line false sharing" `Quick
            test_line_false_sharing;
          Alcotest.test_case "page false sharing" `Quick
            test_page_false_sharing;
          Alcotest.test_case "same word is a race" `Quick
            test_same_word_is_race_not_sharing;
          Alcotest.test_case "ordered neighbours clean" `Quick
            test_ordered_neighbours_no_sharing;
          Alcotest.test_case "attribution & json" `Quick
            test_array_attribution_and_json;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_steady_state_allocates_nothing;
        ] );
      ( "engine",
        [
          Alcotest.test_case "clean program" `Quick test_engine_clean;
          Alcotest.test_case "seeded barrier drop" `Quick
            test_engine_seeded_race;
          Alcotest.test_case "idle processors" `Quick
            test_engine_fewer_iterations_than_procs;
          Alcotest.test_case "determinism" `Quick test_engine_disabled_is_free;
          Alcotest.test_case "timing unperturbed" `Quick
            test_engine_timing_unchanged_by_sanitizer;
        ] );
    ]

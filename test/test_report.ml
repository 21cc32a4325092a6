(* Tests for the reporting library and the core facade (public pipeline). *)

open Ddsm_report
module Ddsm = Ddsm_core.Ddsm
module C = Ddsm_machine.Counters

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let has_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats () =
  let c = C.create () in
  c.C.loads <- 80;
  c.C.stores <- 20;
  c.C.l1_misses <- 10;
  c.C.l2_misses <- 5;
  c.C.local_fills <- 4;
  c.C.remote_fills <- 1;
  c.C.tlb_stall_cycles <- 25;
  c.C.mem_stall_cycles <- 100;
  let s = Stats.of_counters c in
  check_int "accesses" 100 s.Stats.accesses;
  Alcotest.(check (float 1e-9)) "l1 rate" 0.1 s.Stats.l1_miss_rate;
  Alcotest.(check (float 1e-9)) "local fraction" 0.8 s.Stats.local_fill_fraction;
  Alcotest.(check (float 1e-9)) "tlb fraction" 0.25 s.Stats.tlb_stall_fraction;
  check_bool "pp works" true (String.length (Format.asprintf "%a" Stats.pp s) > 0)

let test_stats_ratio_nan () =
  (* 0/0 is "nothing happened"; a positive numerator over a zero
     denominator is a counter-accounting bug and must not read as 0.0 *)
  Alcotest.(check (float 0.0)) "0/0" 0.0 (Stats.ratio 0 0);
  check_bool "a/0 is nan, not 0" true (Float.is_nan (Stats.ratio 7 0));
  let c = C.create () in
  c.C.tlb_stall_cycles <- 42;
  (* mem_stall_cycles stays 0: contradictory *)
  let s = Stats.of_counters c in
  check_bool "contradictory fraction is nan" true
    (Float.is_nan s.Stats.tlb_stall_fraction);
  let rendered = Format.asprintf "%a" Stats.pp s in
  check_bool "pp renders the bad fraction as --" true (has_sub rendered "--%");
  check_bool "pp never prints literal nan" false (has_sub rendered "nan")

let test_stats_audit () =
  let c = C.create () in
  Alcotest.(check (list string)) "fresh counters are consistent" [] (Stats.audit c);
  c.C.loads <- 100;
  c.C.l1_misses <- 10;
  c.C.l2_misses <- 4;
  c.C.local_fills <- 3;
  c.C.remote_fills <- 1;
  c.C.tlb_misses <- 2;
  c.C.tlb_stall_cycles <- 50;
  c.C.mem_stall_cycles <- 500;
  Alcotest.(check (list string)) "consistent counters" [] (Stats.audit c);
  (* now break the fill/miss accounting *)
  c.C.remote_fills <- 5;
  check_bool "fills <> l2_misses flagged" true
    (List.exists (fun m -> has_sub m "l2_misses") (Stats.audit c));
  let c2 = C.create () in
  c2.C.tlb_stall_cycles <- 9;
  let bugs = Stats.audit c2 in
  check_bool "tlb stall without tlb misses flagged" true
    (List.exists (fun m -> has_sub m "tlb_misses") bugs);
  check_bool "tlb stall without mem stall flagged" true
    (List.exists (fun m -> has_sub m "mem_stall_cycles") bugs)

(* ------------------------------------------------------------------ *)
(* Profile: direct attribution unit tests (synthetic access events) *)

let mk_ev ?(proc = 0) ?(addr = 0) ?(tlb = 0) ?(hit = 0) ?(local = 0)
    ?(remote = 0) ?(contention = 0) ?(coherence = 0) () =
  {
    Ddsm_machine.Memsys.ev_proc = proc;
    ev_addr = addr;
    ev_write = false;
    ev_now = 0;
    ev_tlb = tlb;
    ev_hit = hit;
    ev_local = local;
    ev_remote = remote;
    ev_contention = contention;
    ev_coherence = coherence;
    ev_tlb_flushed = false;
  }

let test_profile_matrix () =
  let p = Profile.create () in
  (* words 10..19 belong to "x", words 30..34 to "y" *)
  let alloc name word_ranges =
    Profile.observe p (Ddsm_runtime.Rt.Alloc { name; word_ranges })
  in
  let access region ev =
    Profile.observe p (Ddsm_runtime.Rt.Access { region; ev })
  in
  alloc "x" [ (10, 19) ];
  alloc "y" [ (30, 34) ];
  (* byte addresses: word w covers [8w, 8w+7] *)
  access "r1" (mk_ev ~addr:(10 * 8) ~remote:40 ~hit:2 ());
  access "r1" (mk_ev ~addr:((19 * 8) + 7) ~local:10 ());
  access "r2" (mk_ev ~addr:(30 * 8) ~tlb:25 ~contention:5 ());
  (* between the two arrays: unattributed *)
  access "r2" (mk_ev ~addr:(25 * 8) ~local:7 ());
  check_int "total" (40 + 2 + 10 + 25 + 5 + 7) (Profile.total_stall p);
  check_int "attributed" (40 + 2 + 10 + 25 + 5) (Profile.attributed_stall p);
  let rows = Profile.rows p in
  let find region array =
    List.find_opt
      (fun r -> r.Profile.r_region = region && r.Profile.r_array = array)
      rows
  in
  (match find "r1" "x" with
  | None -> Alcotest.fail "missing (r1, x) row"
  | Some r ->
      check_int "r1/x total" 52 r.Profile.r_total;
      check_int "r1/x remote" 40
        r.Profile.r_cycles.(Profile.cause_index Profile.Remote_fill);
      check_int "r1/x local" 10
        r.Profile.r_cycles.(Profile.cause_index Profile.Local_fill));
  (match find "r2" "y" with
  | None -> Alcotest.fail "missing (r2, y) row"
  | Some r ->
      check_int "r2/y tlb" 25
        r.Profile.r_cycles.(Profile.cause_index Profile.Tlb));
  (match find "r2" "(unattributed)" with
  | None -> Alcotest.fail "missing unattributed row"
  | Some r -> check_int "unattributed cycles" 7 r.Profile.r_total);
  check_bool "report renders" true
    (String.length (Format.asprintf "%a" (Profile.pp_report ~top:10) p) > 0)

let test_profile_ring_bounded () =
  let p = Profile.create ~trace_cap:4 () in
  for i = 1 to 10 do
    Profile.observe p (Ddsm_runtime.Rt.Barrier { procs = [ 0 ]; now = i })
  done;
  check_int "dropped" 6 (Profile.trace_dropped p)

(* ------------------------------------------------------------------ *)
(* Profile: end-to-end attribution on a two-array microprogram.

   Region 1 initializes a with owner affinity (local traffic on a);
   region 2 writes b from a read *reversed* (a(n+1-i)), so the stall
   cycles of region 2 must land on array a largely as remote fills. *)

let twoarr =
  {|
      program twoarr
      integer n, i
      parameter (n = 64)
      real*8 a(n), b(n)
c$distribute_reshape a(block)
c$distribute_reshape b(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = i
      enddo
c$doacross local(i) affinity(i) = data(b(i))
      do i = 1, n
        b(i) = a(n+1-i)
      enddo
      print *, b(1)
      end
|}

let region_line label =
  match String.rindex_opt label ':' with
  | None -> -1
  | Some i -> (
      match int_of_string_opt (String.sub label (i + 1) (String.length label - i - 1)) with
      | Some n -> n
      | None -> -1)

let test_profile_end_to_end () =
  let profile = Ddsm.Profile.create () in
  let o =
    match Ddsm.run_source ~nprocs:4 ~profile twoarr with
    | Ok o -> o
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list string)) "prints" [ "64" ] o.Ddsm.Engine.prints;
  (* the cause taxonomy partitions mem_stall_cycles exactly *)
  check_int "profile total = machine mem_stall counter"
    o.Ddsm.Engine.counters.C.mem_stall_cycles
    (Profile.total_stall profile);
  let total = Profile.total_stall profile in
  let attributed = Profile.attributed_stall profile in
  check_bool "at least 90% of stall cycles attributed" true
    (10 * attributed >= 9 * total);
  let rows = Profile.rows profile in
  (* two distinct doacross regions were seen, plus possibly (serial) *)
  let regions =
    List.sort_uniq compare
      (List.filter_map
         (fun r ->
           if r.Profile.r_region = "(serial)" then None
           else Some r.Profile.r_region)
         rows)
  in
  check_int "two parallel regions" 2 (List.length regions);
  check_bool "regions are named routine:line" true
    (List.for_all (fun l -> has_sub l "twoarr:" && region_line l > 0) regions);
  (* region 2 (the higher line number) reads a reversed: its stalls on
     array a must include remote fills, and more of them than region 1's *)
  let r1, r2 =
    match regions with
    | [ x; y ] when region_line x < region_line y -> (x, y)
    | [ x; y ] -> (y, x)
    | _ -> Alcotest.fail "expected two regions"
  in
  let remote_on region array =
    List.fold_left
      (fun acc r ->
        if r.Profile.r_region = region && r.Profile.r_array = array then
          acc + r.Profile.r_cycles.(Profile.cause_index Profile.Remote_fill)
        else acc)
      0 rows
  in
  let a = "twoarr/a" in
  check_bool "region 2 has remote stalls on a" true (remote_on r2 a > 0);
  check_bool "region 2's remote stalls on a exceed region 1's" true
    (remote_on r2 a >= remote_on r1 a)

(* ------------------------------------------------------------------ *)
(* Observer attach/detach: the engine owns the machine probe only while a
   profiler or sanitizer is attached, and leaves nothing behind. *)

module Memsys = Ddsm_machine.Memsys

let twoarr_prog () =
  match Ddsm.compile_source ~fname:"twoarr.pf" twoarr with
  | Error es -> Alcotest.failf "compile: %s" (String.concat ";" es)
  | Ok obj -> (
      match Ddsm.link [ obj ] with
      | Ok (prog, _) -> prog
      | Error es -> Alcotest.failf "link: %s" (String.concat ";" es))

(* one more access on the machine after the run *)
let touch rt =
  ignore
    (Memsys.access rt.Ddsm_runtime.Rt.mem ~proc:0 ~addr:0 ~write:false ~now:0)

let test_unobserved_run_keeps_probe () =
  let rt = Ddsm.make_rt ~nprocs:4 () in
  let seen = ref 0 in
  Memsys.set_probe rt.Ddsm_runtime.Rt.mem (Some (fun _ -> incr seen));
  (match Ddsm.run (twoarr_prog ()) ~rt () with
  | Ok o ->
      check_int "probe saw every access" (C.accesses o.Ddsm.Engine.counters)
        !seen
  | Error d -> Alcotest.fail (Ddsm.Diag.to_string d));
  let after = !seen in
  touch rt;
  check_int "caller's probe still installed" (after + 1) !seen

let test_observers_detached () =
  let check_detached what ~max_cycles ~ok =
    let rt = Ddsm.make_rt ~nprocs:4 () in
    let profile = Ddsm.Profile.create () in
    let sanitize =
      Ddsm.Sanitize.create ~nprocs:4 ~line_bytes:128 ~page_bytes:4096 ()
    in
    let r = Ddsm.run (twoarr_prog ()) ~rt ~max_cycles ~profile ~sanitize () in
    check_bool (what ^ ": run outcome") ok (Result.is_ok r);
    check_bool (what ^ ": runtime observer cleared") true
      (rt.Ddsm_runtime.Rt.observe = None);
    let stall = Profile.total_stall profile in
    check_bool (what ^ ": profiled some accesses") true (stall > 0);
    touch rt;
    check_int (what ^ ": machine probe removed") stall
      (Profile.total_stall profile)
  in
  check_detached "ok run" ~max_cycles:max_int ~ok:true;
  check_detached "cycle-budget run" ~max_cycles:2000 ~ok:false;
  (* two subscribers straight on the engine: each event reaches [a], then
     [b], and both are gone once the run returns *)
  let check_order what ~max_cycles ~ok =
    let rt = Ddsm.make_rt ~nprocs:4 () in
    let log = Buffer.create 4096 in
    let a _ = Buffer.add_char log 'a' and b _ = Buffer.add_char log 'b' in
    let r =
      Ddsm.Engine.run (twoarr_prog ()) ~rt ~max_cycles ~observers:[ a; b ] ()
    in
    check_bool (what ^ ": run outcome") ok (Result.is_ok r);
    let s = Buffer.contents log in
    let n = String.length s in
    check_bool (what ^ ": events delivered") true (n > 0);
    let count c = String.fold_left (fun k x -> if x = c then k + 1 else k) 0 s in
    check_int (what ^ ": both saw every event") (count 'a') (count 'b');
    Alcotest.(check string) (what ^ ": a then b, event by event")
      (String.concat "" (List.init (count 'a') (fun _ -> "ab")))
      s;
    check_bool (what ^ ": runtime observer cleared") true
      (rt.Ddsm_runtime.Rt.observe = None);
    touch rt;
    check_int (what ^ ": machine probe removed") n (Buffer.length log)
  in
  check_order "ok run, ordered subscribers" ~max_cycles:max_int ~ok:true;
  check_order "cycle-budget run, ordered subscribers" ~max_cycles:2000 ~ok:false

(* ------------------------------------------------------------------ *)
(* Trace export: [Json.of_string] reads back what the emitter wrote, and
   checks the Chrome trace output is well-formed and timestamp-monotonic. *)

let parse_json what rendered =
  match Json.of_string rendered with
  | Ok v -> v
  | Error m -> Alcotest.failf "%s malformed: %s" what m

(* a JSON number, whichever literal form the emitter chose *)
let number = function
  | Json.Int n -> Some (float_of_int n)
  | Json.Float f -> Some f
  | _ -> None

let test_json_nonfinite_roundtrip () =
  (* JSON has no literal for inf/-inf/nan: all three must emit [null],
     and the result must still parse. *)
  let v =
    Json.Obj
      [
        ("a", Json.Float infinity);
        ("b", Json.Float neg_infinity);
        ("c", Json.Float nan);
        ("d", Json.Float 3.5);
        ("e", Json.List [ Json.Float neg_infinity; Json.Float 1.0 ]);
      ]
  in
  let rendered = Json.to_string v in
  match parse_json "emitted JSON" rendered with
  | Json.Obj f ->
      let is_null k = List.assoc_opt k f = Some Json.Null in
      check_bool "infinity emits null" true (is_null "a");
      check_bool "neg_infinity emits null" true (is_null "b");
      check_bool "nan emits null" true (is_null "c");
      (match Option.bind (List.assoc_opt "d" f) number with
      | Some x -> Alcotest.(check (float 1e-12)) "finite floats survive" 3.5 x
      | None -> Alcotest.fail "finite float mangled");
      (match List.assoc_opt "e" f with
      | Some (Json.List [ Json.Null; x ]) when number x <> None -> ()
      | _ -> Alcotest.fail "nested non-finite float not nulled")
  | _ -> Alcotest.fail "top level not an object"

let test_trace_roundtrip () =
  let profile = Ddsm.Profile.create () in
  (match Ddsm.run_source ~nprocs:4 ~profile twoarr with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let rendered = Json.to_string (Profile.trace_json profile) in
  let fields =
    match parse_json "trace JSON" rendered with
    | Json.Obj f -> f
    | _ -> Alcotest.fail "trace top level is not an object"
  in
  let events =
    match List.assoc_opt "traceEvents" fields with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  check_bool "trace has events" true (List.length events > 0);
  let ts_of = function
    | Json.Obj f -> (
        (match List.assoc_opt "ph" f with
        | Some (Json.Str ("B" | "E" | "i")) -> ()
        | _ -> Alcotest.fail "bad or missing ph");
        (match List.assoc_opt "name" f with
        | Some (Json.Str _) -> ()
        | _ -> Alcotest.fail "missing name");
        match Option.bind (List.assoc_opt "ts" f) number with
        | Some t ->
            check_bool "ts is an integer" true (Float.is_integer t);
            t
        | None -> Alcotest.fail "missing ts")
    | _ -> Alcotest.fail "event is not an object"
  in
  let stamps = List.map ts_of events in
  let rec monotonic = function
    | a :: (b :: _ as rest) -> a <= b && monotonic rest
    | _ -> true
  in
  check_bool "timestamps are monotonic" true (monotonic stamps);
  (* the doacross regions appear as matched B/E pairs *)
  let count ph =
    List.length
      (List.filter
         (function
           | Json.Obj f -> List.assoc_opt "ph" f = Some (Json.Str ph)
           | _ -> false)
         events)
  in
  check_int "balanced B/E" (count "B") (count "E")

(* ------------------------------------------------------------------ *)
(* Core facade *)

let demo =
  {|
      program demo
      integer n, i
      parameter (n = 64)
      real*8 a(n), s
c$distribute_reshape a(block)
c$doacross local(i) affinity(i) = data(a(i))
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

let test_run_source () =
  match Ddsm.run_source ~nprocs:4 demo with
  | Ok o ->
      Alcotest.(check (list string)) "prints" [ "2080" ] o.Ddsm.Engine.prints;
      check_bool "cycles positive" true (o.Ddsm.Engine.cycles > 0)
  | Error e -> Alcotest.fail e

let test_run_source_reports_errors () =
  check_bool "parse error surfaces" true
    (Result.is_error (Ddsm.run_source "      program p\n      x = \n      end\n"));
  check_bool "sema error surfaces" true
    (Result.is_error (Ddsm.run_source "      program p\n      x = 1\n      end\n"))

let test_staged_pipeline_and_image () =
  let obj =
    match Ddsm.compile_source ~fname:"demo.pf" demo with
    | Ok o -> o
    | Error es -> Alcotest.failf "compile: %s" (String.concat ";" es)
  in
  let prog, linked =
    match Ddsm.link [ obj ] with
    | Ok x -> x
    | Error es -> Alcotest.failf "link: %s" (String.concat ";" es)
  in
  (* save / reload the image and run both *)
  let path = Filename.temp_file "ddsm" ".pfi" in
  Ddsm.save_image linked ~path;
  let linked' =
    match Ddsm.load_image ~path with
    | Ok l -> l
    | Error e -> Alcotest.fail e
  in
  Sys.remove path;
  let run prog =
    let rt = Ddsm.make_rt ~nprocs:4 () in
    match Ddsm.run prog ~rt () with
    | Ok o -> o.Ddsm.Engine.prints
    | Error e -> Alcotest.fail (Ddsm.Diag.to_string e)
  in
  Alcotest.(check (list string)) "direct" [ "2080" ] (run prog);
  Alcotest.(check (list string)) "via image" [ "2080" ]
    (run (Ddsm.prog_of_linked linked'))

let test_machine_presets () =
  (* origin vs scaled machines both run the program; job smaller than
     machine is the paper's setup *)
  List.iter
    (fun machine ->
      match Ddsm.run_source ~machine ~machine_procs:16 ~nprocs:4 demo with
      | Ok o -> Alcotest.(check (list string)) "result" [ "2080" ] o.Ddsm.Engine.prints
      | Error e -> Alcotest.fail e)
    [ Ddsm.Origin2000; Ddsm.Scaled 64; Ddsm.Scaled 256 ]

let test_determinism () =
  let cycles () =
    match Ddsm.run_source ~nprocs:8 demo with
    | Ok o -> o.Ddsm.Engine.cycles
    | Error e -> Alcotest.fail e
  in
  check_int "two identical runs, identical cycles" (cycles ()) (cycles ())

(* ------------------------------------------------------------------ *)
(* Json.of_string *)

let check_str = Alcotest.(check string)

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Float 2.5;
      Json.Str "";
      Json.Str "plain";
      Json.Str "esc \" \\ \n \t \x01 end";
      Json.List [];
      Json.List [ Json.Int 1; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.of_string s with
      | Ok v' -> check_str ("roundtrip " ^ s) s (Json.to_string v')
      | Error e -> Alcotest.failf "roundtrip %s: %s" s e)
    values

let test_json_parse_forms () =
  let ok s expect =
    match Json.of_string s with
    | Ok v -> check_str ("parse " ^ s) expect (Json.to_string v)
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  ok "  true " "true";
  ok "3" "3";
  ok "-7" "-7";
  ok "3.5" "3.5";
  ok "1e3" "1000";
  ok {|"Aé"|} "\"A\xc3\xa9\"";
  (* surrogate pair: U+1F600 *)
  (match Json.of_string {|"😀"|} with
  | Ok (Json.Str s) -> check_str "surrogate pair" "\xf0\x9f\x98\x80" s
  | Ok _ | Error _ -> Alcotest.fail "surrogate pair did not parse to a string");
  ok {| { "a" : [ 1 , 2 ] } |} {|{"a":[1,2]}|};
  (* Int/Float discrimination survives a round trip *)
  (match Json.of_string "9" with
  | Ok (Json.Int 9) -> ()
  | _ -> Alcotest.fail "9 should parse as Int");
  match Json.of_string "9.0" with
  | Ok (Json.Float _) -> ()
  | _ -> Alcotest.fail "9.0 should parse as Float"

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok v ->
          Alcotest.failf "parse %S: expected an error, got %s" s
            (Json.to_string v)
      | Error _ -> ())
    [
      ""; "   "; "tru"; "nul"; "{"; "["; "[1,"; "{\"a\":}"; "\"unterminated";
      "1 2"; "{} x"; "{\"a\" 1}"; "'single'"; "+1"; "\"bad \\q escape\"";
    ]

let () =
  Alcotest.run "report+core"
    [
      ( "json parse",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "forms" `Quick test_json_parse_forms;
          Alcotest.test_case "rejects" `Quick test_json_rejects;
        ] );
      ( "stats",
        [
          Alcotest.test_case "derived metrics" `Quick test_stats;
          Alcotest.test_case "ratio flags 0-denominator bugs" `Quick
            test_stats_ratio_nan;
          Alcotest.test_case "counter-accounting audit" `Quick test_stats_audit;
        ] );
      ( "profile",
        [
          Alcotest.test_case "attribution matrix" `Quick test_profile_matrix;
          Alcotest.test_case "ring buffer is bounded" `Quick
            test_profile_ring_bounded;
          Alcotest.test_case "two-array end-to-end attribution" `Quick
            test_profile_end_to_end;
          Alcotest.test_case "unobserved run keeps the caller's probe" `Quick
            test_unobserved_run_keeps_probe;
          Alcotest.test_case "observers detached after ok and error runs"
            `Quick test_observers_detached;
          Alcotest.test_case "chrome trace roundtrip" `Quick
            test_trace_roundtrip;
          Alcotest.test_case "json non-finite floats" `Quick
            test_json_nonfinite_roundtrip;
        ] );
      ( "core",
        [
          Alcotest.test_case "run_source" `Quick test_run_source;
          Alcotest.test_case "error propagation" `Quick test_run_source_reports_errors;
          Alcotest.test_case "staged pipeline & image io" `Quick test_staged_pipeline_and_image;
          Alcotest.test_case "machine presets" `Quick test_machine_presets;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
    ]

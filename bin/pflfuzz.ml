(* pflfuzz — end-to-end compiler fuzzing: a typed random program generator
   feeding a three-way differential harness (reference interpreter,
   sequential engine, Jobs-parallel fast path over several machine
   configurations and §7 flag sets).

   A campaign generates [--count] programs from consecutive seeds, runs
   each through the differential driver, triages failures into root-cause
   buckets (verdict kind + minimized-program digest), shrinks the first
   witness of each bucket and writes the minimized reproducer into the
   corpus directory.  [--replay DIR] re-runs a corpus and checks each
   case's recorded expectation.

   Exit codes: 0 clean; 1 usage; 2 failures found (campaign) or
   expectation mismatches (replay); 3 internal harness failure. *)

open Cmdliner
module Gen = Ddsm_fuzz.Gen
module Spec = Ddsm_fuzz.Spec
module Differ = Ddsm_fuzz.Differ
module Shrink = Ddsm_fuzz.Shrink
module Triage = Ddsm_fuzz.Triage
module Corpus = Ddsm_fuzz.Corpus

let opts_for ~seed ~fault ~race ~jobs ~max_cycles =
  let base = Differ.default ~seed in
  {
    base with
    Differ.fault;
    race;
    jobs = (match jobs with Some j -> j | None -> base.Differ.jobs);
    max_cycles =
      (match max_cycles with Some c -> c | None -> base.Differ.max_cycles);
  }

let render_single spec =
  match Spec.render { spec with Spec.nfiles = 1 } with
  | [ (_, src) ] -> src
  | files -> String.concat "\n" (List.map snd files)

let campaign ~seed ~count ~max_size ~fault ~race ~jobs ~max_cycles ~out ~quiet
    =
  let size = Gen.of_level max_size in
  let tri = Triage.create () in
  let passes = ref 0 and timeouts = ref 0 in
  for k = 0 to count - 1 do
    let s = seed + k in
    let opts = opts_for ~seed:s ~fault ~race ~jobs ~max_cycles in
    let spec = Gen.generate ~size ~seed:s () in
    match Differ.run opts (Spec.render spec) with
    | Differ.Pass -> incr passes
    | Differ.Timeout -> incr timeouts
    | v ->
        let kind = Differ.kind_of v in
        let detail =
          match v with
          | Differ.Diverged { detail; _ } -> detail
          | Differ.Reject m | Differ.Fail m -> m
          | _ -> ""
        in
        if not quiet then
          Printf.printf "seed %d: %s %s\n%!" s kind detail;
        let still_fails c =
          Differ.kind_of (Differ.run opts (Spec.render c)) = kind
        in
        let mini = Shrink.minimize ~still_fails spec in
        let source = render_single mini in
        if Triage.note tri ~bucket:kind ~seed:s ~detail ~source then
          let path =
            Corpus.write_case ~dir:out ~seed:s ~bucket:kind ~expect:kind
              ~source
          in
          Printf.printf "NEW ROOT CAUSE %s (seed %d): %s\n  reproducer: %s\n%!"
            kind s detail path
  done;
  let roots = Triage.entries tri in
  Printf.printf
    "pflfuzz: %d cases (seeds %d..%d): %d pass, %d timeout, %d failures in \
     %d root causes\n"
    count seed (seed + count - 1) !passes !timeouts (Triage.total tri)
    (List.length roots);
  List.iter
    (fun (e : Triage.entry) ->
      Printf.printf "  [%s] x%d first seed %d: %s\n" e.Triage.bucket
        e.Triage.count e.Triage.seed e.Triage.detail)
    roots;
  if roots = [] then 0 else 2

let replay ~dir ~fault ~race ~jobs ~max_cycles ~quiet =
  let cases = Corpus.load ~dir in
  if cases = [] then begin
    Printf.printf "pflfuzz: empty corpus %s\n" dir;
    0
  end
  else begin
    let bad = ref 0 in
    List.iter
      (fun (c : Corpus.case) ->
        let opts =
          opts_for ~seed:c.Corpus.seed ~fault ~race ~jobs ~max_cycles
        in
        match Corpus.replay opts c with
        | Ok () ->
            if not quiet then
              Printf.printf "ok %s (%s)\n%!"
                (Filename.basename c.Corpus.path)
                c.Corpus.expect
        | Error m ->
            incr bad;
            Printf.printf "FAIL %s\n%!" m)
      cases;
    Printf.printf "pflfuzz: replayed %d corpus cases, %d mismatches\n"
      (List.length cases) !bad;
    if !bad = 0 then 0 else 2
  end

let emit ~seed ~max_size =
  let spec = Gen.generate ~size:(Gen.of_level max_size) ~seed () in
  List.iter
    (fun (fname, src) -> Printf.printf "c ===== %s =====\n%s\n" fname src)
    (Spec.render spec);
  0

(* ------------------------------------------------------------------ *)

(* counts are positive: a zero or negative value is a usage error (exit
   124) at parse time *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let seed_t =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"First seed.")

let count_t =
  Arg.(
    value & opt positive_int 200
    & info [ "count" ] ~docv:"N" ~doc:"Number of cases to generate.")

let max_size_t =
  Arg.(
    value & opt int 10
    & info [ "max-size" ] ~docv:"LEVEL"
        ~doc:"Program size level (10 is the quick CI size).")

let fault_t =
  Arg.(
    value & flag
    & info [ "fault" ]
        ~doc:
          "Inject deterministic performance-fault plans on the variant and \
           flags legs (values must not change) and lost-wakeup chaos legs \
           (which must end ok, in a deadlock or in a watchdog stall).")

let race_t =
  Arg.(
    value & flag
    & info [ "race" ]
        ~doc:
          "Run the base leg under the happens-before sanitizer and require \
           it clean.")

let jobs_t =
  Arg.(
    value & opt (some positive_int) None
    & info [ "jobs" ] ~docv:"N" ~doc:"Domains for the Jobs fast-path leg.")

let max_cycles_t =
  Arg.(
    value & opt (some int) None
    & info [ "max-cycles" ] ~docv:"N"
        ~doc:"Per-leg simulated-cycle budget (watchdog).")

let out_t =
  Arg.(
    value & opt string "fuzz-corpus"
    & info [ "out"; "o" ] ~docv:"DIR"
        ~doc:"Directory for minimized reproducers.")

let replay_t =
  Arg.(
    value & opt (some string) None
    & info [ "replay" ] ~docv:"DIR"
        ~doc:"Replay a corpus directory instead of fuzzing.")

let emit_t =
  Arg.(
    value & opt (some int) None
    & info [ "emit" ] ~docv:"SEED"
        ~doc:"Print the program generated from SEED and exit.")

let quiet_t = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Less output.")

let main seed count max_size fault race jobs max_cycles out replay_dir
    emit_seed quiet =
  try
    match (emit_seed, replay_dir) with
    | Some s, _ -> emit ~seed:s ~max_size
    | None, Some dir -> replay ~dir ~fault ~race ~jobs ~max_cycles ~quiet
    | None, None ->
        campaign ~seed ~count ~max_size ~fault ~race ~jobs ~max_cycles ~out
          ~quiet
  with e ->
    Printf.eprintf "pflfuzz: internal error: %s\n%s%!" (Printexc.to_string e)
      (Printexc.get_backtrace ());
    3

let cmd =
  let doc =
    "differential compiler fuzzing for the data-distribution toolchain"
  in
  Cmd.v
    (Cmd.info "pflfuzz" ~doc)
    Term.(
      const main $ seed_t $ count_t $ max_size_t $ fault_t $ race_t $ jobs_t
      $ max_cycles_t $ out_t $ replay_t $ emit_t $ quiet_t)

let () = exit (Cmd.eval' cmd)

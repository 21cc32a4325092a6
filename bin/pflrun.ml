(* pflrun — run a linked program image on the simulated CC-NUMA machine.

   The processor count, page-placement policy and machine scale are chosen
   here at start-up, exactly as in the paper ("the number of processors in
   each distributed dimension is determined at program start-up time, which
   enables the same executable to run with different number of
   processors").

   Exit codes: 0 success; 1 usage/IO; 2 a runtime error of the simulated
   program — including CLI-level operating-system errors caught below
   (unwritable --trace output, invalid processor counts) which are routed
   through Diag as documented user errors rather than escaping as uncaught
   exceptions; 3 an internal failure of the simulator itself (invariant
   violation, audit failure, differential mismatch). *)

open Cmdliner
module Ddsm = Ddsm_core.Ddsm
module Fault = Ddsm_core.Ddsm.Fault
module Diag = Ddsm_core.Ddsm.Diag
module Pagetable = Ddsm_machine.Pagetable

let policy_conv =
  let parse = function
    | "first-touch" | "ft" -> Ok Pagetable.First_touch
    | "round-robin" | "rr" -> Ok Pagetable.Round_robin
    | s -> Error (`Msg (Printf.sprintf "unknown policy %S (first-touch|round-robin)" s))
  in
  let print ppf = function
    | Pagetable.First_touch -> Format.pp_print_string ppf "first-touch"
    | Pagetable.Round_robin -> Format.pp_print_string ppf "round-robin"
  in
  Arg.conv (parse, print)

let machine_conv =
  let parse s =
    if s = "origin" then Ok Ddsm.Origin2000
    else
      match Scanf.sscanf_opt s "scaled:%d" (fun f -> f) with
      | Some f when f >= 1 -> Ok (Ddsm.Scaled f)
      | _ -> Error (`Msg "machine is 'origin' or 'scaled:<factor>'")
  in
  let print ppf = function
    | Ddsm.Origin2000 -> Format.pp_print_string ppf "origin"
    | Ddsm.Scaled f -> Format.fprintf ppf "scaled:%d" f
  in
  Arg.conv (parse, print)

let fault_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Fault.of_spec s) in
  let print ppf f = Format.pp_print_string ppf (Fault.to_spec f) in
  Arg.conv (parse, print)

(* counts are positive: a zero or negative value is a usage error (exit
   124) at parse time *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let fail_diag d =
  Printf.eprintf "runtime error: %s\n" (Diag.to_string d);
  exit (if Diag.is_internal d then 3 else 2)

(* One configured run of the linked image; a fresh machine every time.
   Machine-shape rejections (hypercube dimension bound, geometry
   invariants) surface as a structured Diag located at the configuration
   phase, naming the offending parameter, not an uncaught exception. *)
let run_once linked ~nprocs ~policy ~machine ~heap_words ~checks ~bounds
    ~max_cycles ~audit ~fault ?profile ?sanitize () =
  match Ddsm_machine.Config.validate (Ddsm.config_of_machine machine ~nprocs) with
  | Error e -> Error (Diag.user ~phase:"config" e)
  | Ok () ->
      let prog = Ddsm.prog_of_linked linked in
      let rt = Ddsm.make_rt ~machine ~policy ~heap_words ~fault ~nprocs () in
      Ddsm.run prog ~rt ~checks ~bounds ?max_cycles ~audit ?profile ?sanitize
        ()

(* --differential N: the transparency oracle. The same image runs under N
   extra configurations with randomized placement policy, processor count
   and fault plan; since directives (and faults) may affect only
   performance, every configuration must print byte-identical output.

   The configuration list is drawn from the LCG up front; the runs — each
   on its own fresh machine — then fan out over [jobs] domains, and
   results are reported in configuration order, so stdout/stderr and exit
   codes are byte-identical to a sequential run whatever the job count. *)
let differential linked ~n ~seed ~jobs ~nprocs ~policy ~machine ~heap_words
    ~checks ~bounds ~max_cycles ~audit =
  let lcg x = ((x * 25214903917) + 11) land 0xFFFFFFFFFFFF in
  let st = ref (lcg (seed + 0x9E3779B9)) in
  let pick arr =
    st := lcg !st;
    arr.((!st lsr 17) mod Array.length arr)
  in
  let describe ~policy ~nprocs ~fault =
    Printf.sprintf "policy=%s nprocs=%d fault=[%s]"
      (match policy with
      | Pagetable.First_touch -> "first-touch"
      | Pagetable.Round_robin -> "round-robin")
      nprocs (Fault.to_spec fault)
  in
  let cfgs =
    List.init n (fun i ->
        let k = i + 1 in
        let policy = pick [| Pagetable.First_touch; Pagetable.Round_robin |] in
        let nprocs = pick [| 2; 4; 8 |] in
        let fault = Fault.random ~seed:(seed + k) ~nnodes:(max 1 (nprocs / 2)) in
        (policy, nprocs, fault))
  in
  let results =
    Ddsm_util.Jobs.map ~jobs
      (fun (policy, nprocs, fault) ->
        run_once linked ~nprocs ~policy ~machine ~heap_words ~checks ~bounds
          ~max_cycles ~audit ~fault ())
      ((policy, nprocs, Fault.none) :: cfgs)
  in
  let unwrap (policy, nprocs, fault) = function
    | Error d ->
        Printf.eprintf "differential: run failed under %s\n%s\n"
          (describe ~policy ~nprocs ~fault)
          (Diag.to_string d);
        exit (if Diag.is_internal d then 3 else 2)
    | Ok o -> o
  in
  let base_cfg = (policy, nprocs, Fault.none) in
  let base, rest =
    match results with
    | b :: rest -> (unwrap base_cfg b, rest)
    | [] -> assert false
  in
  Printf.printf "differential base: %s  cycles=%d\n"
    (describe ~policy ~nprocs ~fault:Fault.none)
    base.Ddsm.Engine.cycles;
  List.iteri
    (fun i (cfg, r) ->
      let k = i + 1 in
      let policy, nprocs, fault = cfg in
      let o = unwrap cfg r in
      let same = o.Ddsm.Engine.prints = base.Ddsm.Engine.prints in
      Printf.printf "differential %d/%d: %s  cycles=%d  output %s\n" k n
        (describe ~policy ~nprocs ~fault)
        o.Ddsm.Engine.cycles
        (if same then "identical" else "DIFFERS");
      if not same then begin
        Printf.eprintf
          "differential mismatch: distribution/faults changed the program's \
           output (transparency violation)\n";
        List.iteri (fun i l -> Printf.eprintf "  base[%d]: %s\n" i l)
          base.Ddsm.Engine.prints;
        List.iteri (fun i l -> Printf.eprintf "  this[%d]: %s\n" i l)
          o.Ddsm.Engine.prints;
        exit 3
      end)
    (List.combine cfgs rest);
  Printf.printf "differential: %d configuration(s), outputs identical\n" n;
  base

let run image nprocs policy machine heap_words stats no_checks bounds
    max_cycles fault audit differ seed jobs profile trace race race_json =
  try
    match Ddsm.load_image ~path:image with
    (* corrupt/truncated/stale images are located user errors (exit 2),
       matching the documented Diag exit-code contract *)
    | Error e -> fail_diag (Diag.user ~phase:"image" e)
    | Ok linked -> (
        let checks = not no_checks in
        let observers =
          List.filter_map
            (fun (given, flag) -> if given then Some flag else None)
            [
              (profile, "--profile");
              (trace <> None, "--trace");
              (race, "--race");
              (race_json <> None, "--race-json");
              (stats, "--stats");
            ]
        in
        match differ with
        | Some _ when observers <> [] ->
            fail_diag
              (Diag.user ~phase:"cli"
                 (Printf.sprintf
                    "--differential compares program output only; it cannot \
                     be combined with %s"
                    (String.concat ", " observers)))
        | Some n ->
            ignore
              (differential linked ~n ~seed ~jobs ~nprocs ~policy ~machine
                 ~heap_words ~checks ~bounds ~max_cycles ~audit)
        | None -> (
            let prof =
              if profile || trace <> None then Some (Ddsm.Profile.create ())
              else None
            in
            let san =
              if race || race_json <> None then
                Some (Ddsm.make_sanitizer machine ~nprocs)
              else None
            in
            (* written on every path, failed runs included: their last
               events (cycle-budget, wakeup-lost, watchdog-stall) say
               where the run stopped *)
            let write_trace () =
              match (prof, trace) with
              | Some p, Some path ->
                  Ddsm.Profile.write_trace p ~path;
                  let dropped = Ddsm.Profile.trace_dropped p in
                  if dropped > 0 then
                    Printf.printf "trace: %s (%d event(s) dropped)\n" path
                      dropped
                  else Printf.printf "trace: %s\n" path
              | _ -> ()
            in
            (* a failed run reports its own diagnosis even if the trace
               cannot be written *)
            let fail_run d =
              (try write_trace ()
               with Sys_error m -> Printf.eprintf "trace not written: %s\n" m);
              fail_diag d
            in
            match
              run_once linked ~nprocs ~policy ~machine ~heap_words ~checks
                ~bounds ~max_cycles ~audit ~fault ?profile:prof ?sanitize:san
                ()
            with
            | Error d -> fail_run d
            | Ok o ->
                List.iter print_endline o.Ddsm.Engine.prints;
                Printf.printf "cycles: %d  (procs: %d)\n" o.Ddsm.Engine.cycles
                  nprocs;
                if audit then print_endline "audit clean";
                (match san with
                | None -> ()
                | Some s ->
                    (match race_json with
                    | None -> ()
                    | Some path ->
                        let oc = open_out path in
                        Ddsm.Json.to_channel oc
                          (Ddsm.Sanitize.report_json s);
                        output_char oc '\n';
                        close_out oc);
                    Format.printf "%a" Ddsm.Sanitize.pp_report s;
                    match Ddsm.Sanitize.races s with
                    | [] -> ()
                    | races ->
                        (* a detected race is a bug in the simulated
                           program: a structured user diagnosis, exit 2 *)
                        let d =
                          Ddsm.Diag.user ~phase:"sanitize"
                            (Printf.sprintf
                               "%d data race(s) detected (conflicting \
                                accesses with no happens-before ordering)"
                               (List.length races))
                        in
                        fail_run
                          {
                            d with
                            Ddsm.Diag.violations =
                              List.map
                                (fun r ->
                                  Ddsm.Audit.v "data-race" "%s"
                                    (Ddsm.Sanitize.describe r))
                                races;
                          });
                if stats then begin
                  Format.printf "%a@." Ddsm_report.Stats.pp
                    (Ddsm_report.Stats.of_counters o.Ddsm.Engine.counters);
                  List.iter
                    (Printf.printf "counter-accounting bug: %s\n")
                    (Ddsm_report.Stats.audit o.Ddsm.Engine.counters);
                  Printf.printf
                    "schedule: parks %d  direct continues %d  forks %d\n"
                    o.Ddsm.Engine.parks o.Ddsm.Engine.direct_continues
                    o.Ddsm.Engine.forks
                end;
                (match prof with
                | Some p when profile ->
                    Format.printf "%a"
                      (Ddsm.Profile.pp_report ~top:12)
                      p
                | _ -> ());
                write_trace ()))
  with
  (* CLI-level OS/argument failures (unwritable --trace path, bad
     processor count reaching Rt.create, truncated image file): a
     documented user-error exit, never an uncaught exception. *)
  | Sys_error m -> fail_diag (Diag.user ~phase:"cli" m)
  | Failure m -> fail_diag (Diag.user ~phase:"cli" m)
  | Invalid_argument m -> fail_diag (Diag.user ~phase:"cli" m)

let () =
  let image = Arg.(required & pos 0 (some file) None & info [] ~docv:"PROG.pfi") in
  let nprocs =
    Arg.(value & opt int 8 & info [ "p"; "nprocs" ] ~docv:"N" ~doc:"Simulated processors.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Pagetable.First_touch
      & info [ "policy" ] ~docv:"POLICY" ~doc:"Default page placement: first-touch or round-robin.")
  in
  let machine =
    Arg.(
      value
      & opt machine_conv (Ddsm.Scaled 64)
      & info [ "machine" ] ~docv:"M" ~doc:"Machine preset: origin or scaled:<factor>.")
  in
  let heap =
    Arg.(value & opt int (1 lsl 24) & info [ "heap-words" ] ~doc:"Simulated heap size in 8-byte words.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print hardware-counter statistics and the scheduling decisions \
             (accesses that parked or continued directly, regions forked).")
  in
  let no_checks =
    Arg.(value & flag & info [ "no-checks" ] ~doc:"Disable the §6 runtime argument checks.")
  in
  let bounds = Arg.(value & flag & info [ "bounds" ] ~doc:"Enable subscript bounds checking.") in
  let max_cycles =
    Arg.(value & opt (some int) None & info [ "max-cycles" ] ~doc:"Abort after this many cycles.")
  in
  let fault =
    Arg.(
      value
      & opt fault_conv Fault.none
      & info [ "fault" ] ~docv:"SPEC"
          ~doc:
            "Deterministic fault plan, e.g. \
             $(b,slow=0:80,hotdir=1:40,tlb=512,redist-fail=2) or \
             $(b,random=SEED:NNODES). Faults perturb timing only; output \
             must not change.")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Audit machine invariants (coherence, directory/cache \
             agreement, TLB/page-table agreement, heap canaries) after the \
             run; an inconsistency fails with exit code 3.")
  in
  let differential =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "differential" ] ~docv:"N"
          ~doc:
            "Transparency oracle: run the image under N extra randomized \
             {policy, nprocs, fault-plan} configurations and require \
             byte-identical output from all of them. Combining it with \
             $(b,--profile), $(b,--trace), $(b,--race), $(b,--race-json) or \
             $(b,--stats) is a user error (exit 2).")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Random seed for $(b,--differential) configurations.")
  in
  let jobs =
    Arg.(
      value
      & opt positive_int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Run $(b,--differential) configurations on up to N domains \
             (default 1). Results are reported in \
             configuration order, so the output is identical for any N.")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Attribute memory-stall cycles to (parallel region, array, \
             cause) and print the top rows after the run.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the run's event trace (region enter/exit, barriers, \
             redistributions, gathers, fault injections) as Chrome \
             trace-event JSON loadable in chrome://tracing or Perfetto. A \
             failed run writes its trace too, ending where the run stopped \
             (cycle budget, lost wakeup, watchdog stall).")
  in
  let race =
    Arg.(
      value & flag
      & info [ "race" ]
          ~doc:
            "Attach the happens-before sanitizer: report data races \
             (conflicting unordered accesses to one word — exit code 2 with \
             a structured report) and line/page false sharing (conflicting \
             unordered accesses to distinct words of one cache line or \
             page — advisory only), each labelled with its parallel region \
             and array.")
  in
  let race_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "race-json" ] ~docv:"FILE"
          ~doc:
            "Write the sanitizer report as JSON to FILE (implies \
             $(b,--race)).")
  in
  let cmd =
    Cmd.v
      (Cmd.info "pflrun" ~version:"1.0"
         ~doc:"Run a linked image on the simulated Origin-2000.")
      Term.(
        const run $ image $ nprocs $ policy $ machine $ heap $ stats $ no_checks
        $ bounds $ max_cycles $ fault $ audit $ differential $ seed $ jobs
        $ profile $ trace $ race $ race_json)
  in
  exit (Cmd.eval cmd)

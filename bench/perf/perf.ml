(* perf — host-time benchmark of compile -> link -> simulate.

     perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1]

   Set-up builds every image of the workload five times (setup_s sums each
   image's median build time) after computing each program's reference
   prints with the interpreter. One untimed warm-up pass follows, whose
   cycles and counters every later op must reproduce. --trace 1 then runs
   one traced pass (Layers) and reports the per-layer metrics instead of
   the end-to-end ones. Timed passes run every op of the workload once
   each, with a full major GC between passes and outside the timing, until
   the next pass would end more than S seconds after set-up began.

   Every metric is printed by name with its unit, and so is the wall time
   of each step; the last line of stdout is one JSON object {correct,
   attempted, failed, metrics}. *)

module Ddsm = Ddsm_core.Ddsm
module Json = Ddsm.Json

let now = Unix.gettimeofday

(* linear interpolation between closest ranks *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.

let metric = Metric.v

(* set-up builds per run; setup_s sums each image's median build time *)
let setup_builds = 5

type tally = { mutable attempted : int; mutable failed : int }

type op_sample = {
  time : float;
  cost : Ops.cost;
  accesses : int;
}

let image_path ~work (w : Suite.workload) i =
  Filename.concat work (Printf.sprintf "%s-%d.pfi" w.name i)

(* One pflc build of every image; returns each image's build time. *)
let setup_build ~work (w : Suite.workload) =
  List.mapi
    (fun i p ->
      let t0 = now () in
      match Ops.build Ops.plain p ~path:(image_path ~work w i) with
      | Ok _ -> now () -. t0
      | Error e -> failwith (Printf.sprintf "building %s: %s" p.Suite.name e))
    w.programs

(* Failures are reported on stderr and counted, never fatal. *)
let check ~tally ~expected ~warm_up (w : Suite.workload) i r =
  tally.attempted <- tally.attempted + 1;
  match
    Check.verdict ~expected:expected.(i) ?reference:warm_up.(i)
      (Result.map (fun r -> r.Ops.observed) r)
  with
  | Ok () -> ()
  | Error why ->
      tally.failed <- tally.failed + 1;
      Printf.eprintf "op %s failed: %s\n%!" (List.nth w.programs i).Suite.name why

(* One pass over every op. Only the checked outcome of an op is kept: a
   machine held past its op would swell the heap every later op's GC
   work scans. *)
let pass ~work ~check (w : Suite.workload) =
  List.mapi
    (fun i (p : Suite.program) ->
      let hook, cost = Ops.charging () in
      let t0 = now () in
      let r = Ops.run hook w p ~path:(image_path ~work w i) in
      let time = now () -. t0 in
      check i r;
      match r with
      | Ok r ->
          ( Some r.Ops.observed,
            {
              time;
              cost;
              accesses =
                Ddsm_machine.Counters.accesses r.Ops.outcome.Ddsm.Engine.counters;
            } )
      | Error _ -> (None, { time; cost; accesses = 0 }))
    w.programs

let vm_hwm_mib () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> kb))
  |> function
  | Some kb -> float kb /. 1024.
  | None -> failwith "no VmHWM in /proc/self/status"

(* Rates divide one pass's work by the median pass time: a burst of load
   from outside the benchmark slows a few passes, not the median. Every
   pass does the same work, as the warm-up check guarantees. *)
let end_to_end ~setup_s ~passes =
  let ops = List.concat passes in
  let times = List.map (fun s -> s.time) ops in
  let per_pass f = median (List.map (fun p -> sum (List.map f p)) passes) in
  let n = List.length ops in
  let ops_per_pass = float (List.length (List.hd passes)) in
  let accesses_per_pass =
    float (List.fold_left (fun a s -> a + s.accesses) 0 (List.hd passes))
  in
  [
    metric "setup_s" "s" setup_s
      ~note:(Printf.sprintf "per-image median of %d builds" setup_builds);
    metric "ops_per_s" "ops/s" (ops_per_pass /. per_pass (fun s -> s.time));
    metric "op_s_p50" "s" (median times) ~note:(Printf.sprintf "n=%d" n);
    metric "op_s_p90" "s" (quantile 0.9 times) ~note:(Printf.sprintf "n=%d" n);
    metric "sim_s_per_pass" "s" (per_pass (fun s -> s.cost.Ops.sim_s));
    metric "compile_s_per_pass" "s" (per_pass (fun s -> s.cost.Ops.compile_s));
    metric "sim_accesses_per_s" "acc/s"
      (accesses_per_pass /. per_pass (fun s -> s.cost.Ops.run_s));
    metric "peak_rss_mb" "MiB" (vm_hwm_mib ()) ~note:"VmHWM";
  ]

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable fuzz_count : int;
  mutable work : string;
  mutable require : string option;
}

let parse_args () =
  let o =
    {
      workload = "";
      seed = 1;
      seconds = 24.;
      trace = false;
      fuzz_count = 400;
      work = "_build/perf";
      require = None;
    }
  in
  let spec =
    [
      ("--workload", Arg.Symbol (Suite.names, fun w -> o.workload <- w), " workload to run");
      ("--seed", Arg.Int (fun s -> o.seed <- s), "N seed of the generated inputs (default 1)");
      ( "--seconds",
        Arg.Float
          (fun s ->
            if not (s > 0. && Float.is_finite s) then
              raise (Arg.Bad "--seconds takes a finite time > 0");
            o.seconds <- s),
        "S host seconds the run measures, from the start of set-up (default 24)" );
      ( "--trace",
        Arg.Int
          (function
          | 0 -> o.trace <- false
          | 1 -> o.trace <- true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 report the per-layer metrics of a traced pass (default 0)" );
      ("--fuzz-count", Arg.Int (fun n -> o.fuzz_count <- n), "N generated programs in compile-fuzz (default 400)");
      ("--work", Arg.String (fun d -> o.work <- d), "DIR where images and the trace-W.json Chrome trace are written (default _build/perf)");
      ( "--require",
        Arg.String (fun f -> o.require <- Some f),
        "FILE exit 1 unless every metric named in this BENCHMARK.json was printed and no op failed" );
    ]
  in
  let usage = "perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if o.workload = "" then begin
    prerr_endline "perf: --workload is required";
    Arg.usage (Arg.align spec) usage;
    exit 2
  end;
  o

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* names listed under end_to_end and per_layer in BENCHMARK.json *)
let required_names path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.of_string text with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok (Json.Obj fields) ->
      List.concat_map
        (fun key ->
          match List.assoc_opt key fields with
          | Some (Json.List ms) ->
              List.filter_map
                (function
                  | Json.Obj m -> (
                      match List.assoc_opt "name" m with
                      | Some (Json.Str n) -> Some n
                      | _ -> None)
                  | _ -> None)
                ms
          | _ -> [])
        [ "end_to_end"; "per_layer" ]
  | Ok _ -> failwith (path ^ ": not a JSON object")

let print_metric (m : Metric.t) =
  Printf.printf "%-28s %18.9g %-7s %s\n" m.name m.value m.unit_ m.note

let result_line ~tally metrics =
  let body =
    List.map
      (fun (m : Metric.t) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value
          m.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0) tally.attempted tally.failed (String.concat ", " body)

(* The wall time of each step of a run, printed at its end. *)
let steps = ref []

let step name f =
  let t0 = now () in
  let r = f () in
  steps := (name, now () -. t0) :: !steps;
  r

let () =
  let started = now () in
  let o = parse_args () in
  mkdir_p o.work;
  let w, expected =
    step "inputs and oracle" (fun () ->
        Suite.make ~seed:o.seed ~fuzz_count:o.fuzz_count o.workload)
  in
  let expected = Array.of_list expected in
  let deadline = now () +. o.seconds in
  (* each image's median build time over the set-up builds, summed: a burst
     of outside load slows one build of an image, not its median *)
  let setup_s =
    step "set-up" (fun () ->
        let builds =
          Array.init setup_builds (fun _ ->
              Array.of_list (setup_build ~work:o.work w))
        in
        sum
          (List.mapi
             (fun i _ -> median (List.map (fun b -> b.(i)) (Array.to_list builds)))
             w.programs))
  in
  let tally = { attempted = 0; failed = 0 } in
  let warm_up = Array.make (List.length w.programs) None in
  let check = check ~tally ~expected ~warm_up w in
  let warm_up_s =
    step "warm-up" (fun () ->
        sum
          (List.mapi
             (fun i (observed, s) ->
               warm_up.(i) <- observed;
               s.time)
             (pass ~work:o.work ~check w)))
  in
  let trace_out = Filename.concat o.work ("trace-" ^ w.name ^ ".json") in
  (* the spans are written out and dropped before the timed passes, so
     their GC work does not slow them *)
  let traced =
    if not o.trace then None
    else
      step "traced pass" (fun () ->
          let metrics, traced_ops_per_s, spans =
            Layers.pass w ~image_path:(image_path ~work:o.work w) ~check
          in
          Spans.write spans ~path:trace_out;
          Some (metrics, traced_ops_per_s))
  in
  (* Passes run until the next one, judged by the last, would end past the
     deadline. At least one pass runs; 100 ops leave 10 samples beyond
     op_s_p90, and a cap of twice the budget bounds a run on a host too slow
     to reach them. *)
  let rec timed acc ~ops ~last =
    let t = now () in
    let enough =
      acc <> []
      && ((ops >= 100 && t +. last > deadline) || t > deadline +. o.seconds)
    in
    if enough then List.rev acc
    else begin
      Gc.full_major ();
      let p = List.map snd (pass ~work:o.work ~check w) in
      timed (p :: acc) ~ops:(ops + List.length p)
        ~last:(sum (List.map (fun s -> s.time) p))
    end
  in
  let passes = step "timed passes" (fun () -> timed [] ~ops:0 ~last:warm_up_s) in
  let e2e = end_to_end ~setup_s ~passes in
  Printf.printf "workload %s  seed %d  programs %d  timed passes %d  ops %d\n"
    w.name o.seed (List.length w.programs) (List.length passes)
    (List.length (List.concat passes));
  List.iter print_metric e2e;
  let layer =
    match traced with
    | None -> []
    | Some (metrics, traced_ops_per_s) ->
        let untraced =
          (List.find (fun (m : Metric.t) -> m.name = "ops_per_s") e2e).value
        in
        Printf.printf
          "traced pass: %.6g ops/s traced vs %.6g untraced, tracing overhead \
           %+.2f%%; spans written to %s\n"
          traced_ops_per_s untraced
          (100. *. ((untraced /. traced_ops_per_s) -. 1.))
          trace_out;
        List.iter print_metric metrics;
        metrics
  in
  Printf.printf "wall time %.2f s:%s\n" (now () -. started)
    (String.concat ","
       (List.rev_map (fun (n, t) -> Printf.sprintf " %s %.2f" n t) !steps));
  Printf.printf "failed_frac %.6g ratio (%d of %d ops)\n"
    (float tally.failed /. float tally.attempted)
    tally.failed tally.attempted;
  let ok_required =
    match o.require with
    | None -> true
    | Some path ->
        let printed = List.map (fun (m : Metric.t) -> m.name) (e2e @ layer) in
        let missing =
          List.filter (fun n -> not (List.mem n printed)) (required_names path)
        in
        List.iter (Printf.eprintf "metric %s was not printed\n") missing;
        missing = [] && tally.failed = 0
  in
  result_line ~tally (if o.trace then layer else e2e);
  if not ok_required then exit 1

(* Measurement helpers for the paper-check driver (main.ml) and the
   experiments it runs; each experiment module opens this one. *)

module Ddsm = Ddsm_core.Ddsm
module Flags = Ddsm_core.Ddsm.Flags
module W = Workloads

let ppf = Format.std_formatter
let section title = Format.fprintf ppf "@.==== %s ====@.@." title
let all_versions = [ W.First_touch; W.Round_robin; W.Regular; W.Reshaped ]

type setup = {
  machine_procs : int;  (** fixed machine size the jobs run on *)
  factor : int;  (** capacity-scaling factor (see DESIGN.md) *)
  heap_words : int;
  page_bytes : int option;
      (** override the scaled page size: some experiments need the paper's
          page-to-data-structure ratio rather than the scaled one *)
}

let mk_setup ?page_bytes ~machine_procs ~factor ~heap_words () =
  { machine_procs; factor; heap_words; page_bytes }

(* staged: compile once per source, run per processor count *)
let compile ?(flags = Flags.all_on) src =
  match Ddsm.compile_source ~flags ~fname:"<bench>" src with
  | Error es -> failwith (String.concat "\n" es)
  | Ok obj -> (
      match Ddsm.link [ obj ] with
      | Error es -> failwith (String.concat "\n" es)
      | Ok (prog, _) -> prog)

let run_prog ?profile ~setup ~version ~nprocs prog =
  let policy = W.policy_of version in
  let module Config = Ddsm_machine.Config in
  let cfg =
    Config.scaled ~nprocs:(max setup.machine_procs nprocs) ~factor:setup.factor ()
  in
  let cfg =
    match setup.page_bytes with
    | None -> cfg
    | Some pb -> { cfg with Config.page_bytes = pb }
  in
  let rt =
    Ddsm_runtime.Rt.create cfg ~policy ~heap_words:setup.heap_words
      ~job_procs:nprocs ()
  in
  match Ddsm.run prog ~rt ~checks:false ?profile () with
  | Ok o -> o
  | Error m -> failwith ("bench run failed: " ^ Ddsm.Diag.to_string m)

let outcome ?flags ~setup ~version ~nprocs src =
  run_prog ~setup ~version ~nprocs (compile ?flags src)

(* Cycles of the measured phase alone: the difference of two runs, with
   [lo] and [hi] iterations of the measured loop, cancels initialization and
   start-up exactly (the simulator is deterministic). (T, 2T) times a warm
   phase; (0, 1) isolates the FIRST (cold) execution with its compulsory
   misses, which is how the paper measures the single-sweep kernels. *)
let phase_cycles ?flags ~setup ~version ~nprocs ~(mk : iters:int -> string)
    (lo, hi) =
  let cycles iters =
    (outcome ?flags ~setup ~version ~nprocs (mk ~iters)).Ddsm.Engine.cycles
  in
  max 1 (cycles hi - cycles lo)

(* ------------------------------------------------------------------ *)
(* BENCH_*.json snapshots: machine-readable counters + cycle attribution
   per experiment, for offline comparison across versions of the code. *)

module Json = Ddsm.Json

let json_of_counters c =
  Json.Obj
    (List.map
       (fun (k, v) -> (k, Json.Int v))
       (Ddsm_machine.Counters.to_assoc c))

(* one configured run with the profiler attached: the counters plus the
   region x array x cause attribution for that version *)
let version_snapshot ?flags ~setup ~version ~nprocs src =
  let profile = Ddsm.Profile.create () in
  let o = run_prog ~profile ~setup ~version ~nprocs (compile ?flags src) in
  Json.Obj
    [
      ("version", Json.Str (W.version_label version));
      ("nprocs", Json.Int nprocs);
      ("cycles", Json.Int o.Ddsm.Engine.cycles);
      ("counters", json_of_counters o.Ddsm.Engine.counters);
      ("attribution", Ddsm.Profile.attribution_json profile);
    ]

(* the four versions' snapshots at [nprocs], one iteration of [mk] each *)
let version_snapshots ~setup ~nprocs mk =
  Json.List
    (List.map
       (fun version ->
         version_snapshot ~setup ~version ~nprocs (mk version ~iters:1))
       all_versions)

let json_of_series series =
  Json.List
    (List.map
       (fun (_, s) ->
         Json.Obj
           [
             ("label", Json.Str s.Series.label);
             ( "points",
               Json.List
                 (List.map
                    (fun p ->
                      Json.Obj
                        [
                          ("x", Json.Int p.Series.x);
                          ("y", Json.Float p.Series.y);
                        ])
                    s.Series.points) );
           ])
       series)

(* an unwritable working directory downgrades the snapshot to a warning —
   the measurements themselves have already been printed *)
let write_json ~path j =
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Json.to_channel oc j;
        output_char oc '\n');
    Format.fprintf ppf "  snapshot: %s@." path
  with Sys_error m -> Format.fprintf ppf "  snapshot skipped: %s@." m

(* speedup series over a processor sweep, relative to [baseline] cycles *)
let speedup_series ~label ~baseline measurements =
  Series.speedup ~baseline:(float_of_int baseline) ~label
    (List.map (fun (p, c) -> (p, float_of_int c)) measurements)

(* print one [ok]/[MISS] line per paper claim, in order, and return the
   verdicts: each experiment returns them and the driver alone decides the
   exit status *)
let check claims =
  List.map
    (fun (name, ok) ->
      Format.fprintf ppf "  [%s] %s@." (if ok then "ok" else "MISS") name;
      ok)
    claims

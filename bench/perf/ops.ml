(* One op: what a user runs once. In compile-fuzz it is [pflc build] then
   [pflrun]; elsewhere it is [pflrun] on the image built at set-up. Every
   public call goes through a hook, which the timed passes use to charge
   host time to the compile or simulation side and the traced pass uses to
   open a span. *)

module Ddsm = Ddsm_core.Ddsm
module Counters = Ddsm_machine.Counters
module Config = Ddsm_machine.Config

let ( let* ) = Result.bind
let now = Unix.gettimeofday

type side = Compile | Sim | Run  (** [Run] is the part of [Sim] in [Ddsm.run] *)

type hook = { call : 'a. side -> string -> (unit -> 'a) -> 'a }

let plain = { call = (fun _ _ f -> f ()) }

type cost = { mutable compile_s : float; mutable sim_s : float; mutable run_s : float }

let charging () =
  let cost = { compile_s = 0.; sim_s = 0.; run_s = 0. } in
  let call side _name f =
    let t0 = now () in
    Fun.protect f
      ~finally:(fun () ->
        let d = now () -. t0 in
        match side with
        | Compile -> cost.compile_s <- cost.compile_s +. d
        | Sim -> cost.sim_s <- cost.sim_s +. d
        | Run ->
            cost.sim_s <- cost.sim_s +. d;
            cost.run_s <- cost.run_s +. d)
  in
  ({ call }, cost)

let errors es = String.concat "; " es

(* pflc build: compile every file, pre-link, save the image *)
let build hook (p : Suite.program) ~path =
  let* objs =
    List.fold_left
      (fun acc (fname, src) ->
        let* acc = acc in
        hook.call Compile "Ddsm.compile_source" (fun () ->
            Ddsm.compile_source ~fname src)
        |> Result.map (fun o -> o :: acc)
        |> Result.map_error errors)
      (Ok []) p.files
  in
  let* _, linked =
    hook.call Compile "Ddsm.link" (fun () -> Ddsm.link (List.rev objs))
    |> Result.map_error errors
  in
  hook.call Compile "Ddsm.save_image" (fun () -> Ddsm.save_image linked ~path);
  Ok linked

(* the sanitizer pflrun --race builds: the machine's own line and page
   geometry *)
let sanitizer (w : Suite.workload) =
  let cfg = Config.scaled ~nprocs:w.machine_procs () in
  Ddsm.Sanitize.create ~nprocs:w.nprocs
    ~line_bytes:cfg.Config.l2.Config.line_bytes
    ~page_bytes:cfg.Config.page_bytes ()

let make_rt (w : Suite.workload) =
  Ddsm.make_rt ~machine_procs:w.machine_procs ~nprocs:w.nprocs ()

type result = {
  observed : Check.observed;
  linked : Ddsm_linker.Prelink.linked;
  rt : Ddsm_runtime.Rt.t;
  outcome : Ddsm.Engine.outcome;
}

(* pflrun with its defaults, plus --profile --race on observed workloads:
   load the image, build the machine, run, render the reports *)
let pflrun hook (w : Suite.workload) ~path =
  let* linked, prog =
    hook.call Compile "Ddsm.load_image" (fun () ->
        Ddsm.load_image ~path |> Result.map (fun l -> (l, Ddsm.prog_of_linked l)))
  in
  let rt = hook.call Sim "Ddsm.make_rt" (fun () -> make_rt w) in
  let profile, sanitize =
    if w.observed then
      hook.call Sim "observe.attach" (fun () ->
          (Some (Ddsm.Profile.create ()), Some (sanitizer w)))
    else (None, None)
  in
  let* o =
    hook.call Run "Ddsm.run" (fun () ->
        Ddsm.run prog ~rt ?profile ?sanitize ()
        |> Result.map_error Ddsm.Diag.to_string)
  in
  let race_clean =
    match (profile, sanitize) with
    | Some p, Some s ->
        hook.call Sim "observe.report" (fun () ->
            let ppf = Format.formatter_of_buffer (Buffer.create 4096) in
            Format.fprintf ppf "%a%a@?" (Ddsm.Profile.pp_report ~top:12) p
              Ddsm.Sanitize.pp_report s);
        Ddsm.Sanitize.is_clean s
    | _ -> true
  in
  Ok
    {
      observed =
        {
          Check.prints = o.Ddsm.Engine.prints;
          cycles = o.Ddsm.Engine.cycles;
          counters = Counters.to_assoc o.Ddsm.Engine.counters;
          race_clean;
        };
      linked;
      rt;
      outcome = o;
    }

(* One op; any exception is a failed op, never an abort. *)
let run hook (w : Suite.workload) (p : Suite.program) ~path =
  try
    let* () =
      if w.compile_per_op then Result.map ignore (build hook p ~path) else Ok ()
    in
    pflrun hook w ~path
  with e -> Error (Printexc.to_string e)

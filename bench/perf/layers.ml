(* The traced pass: every op of the workload once more, with a span around
   each public call, followed per program by a breakdown that re-runs the
   calls inside the op's layers from the benchmark's own files:

   - the compile layers: parse, sema and each Pipeline step, guarded by
     Pipeline.run itself;
   - elaboration on a fresh machine;
   - Memsys alone: one run's probe stream replayed through a fresh machine;
   - the observers: the same program run plain, with the profiler and
     with the sanitizer.

   Time metrics are host seconds per pass, summed over span self time. *)

module Ddsm = Ddsm_core.Ddsm
module Sema = Ddsm_sema.Sema
module Memsys = Ddsm_machine.Memsys
module Counters = Ddsm_machine.Counters
module Engine = Ddsm_exec.Engine
module Decl = Ddsm_ir.Decl
module Flags = Ddsm_transform.Flags
module Pipeline = Ddsm_transform.Pipeline
open Ddsm_transform

type acc = {
  mutable lines : int;
  mutable nodes_in : int;
  mutable nodes_out : int;
  mutable guard : string option;  (** why transform.* is omitted *)
  mutable recompilations : int;
  mutable image_bytes : int;
  mutable redist_pages : int;
  mutable gather_inspections : int;
  mutable cycles : int;
  counters : Counters.t;
  mutable replayed : int;  (** accesses whose replay reproduced the run *)
  mutable replay_s : float;
  mutable engine_s : float;
  mutable profile_s : float;
  mutable sanitize_s : float;
}

let ir_nodes (r : Decl.routine) =
  let n = ref (Ddsm_ir.Stmt.size r.Decl.rbody) in
  List.iter
    (Ddsm_ir.Stmt.iter_exprs (Ddsm_ir.Expr.iter (fun _ -> incr n)))
    r.Decl.rbody;
  !n

(* Pipeline.run's steps one by one, each in its own span *)
let pipeline_steps tr ~op flags (env : Sema.env) =
  let span name f = Spans.with_span tr ~op name f in
  let step name on f r = if on then span ("transform." ^ name) (fun () -> f r) else r in
  let ctx = span "transform.tctx" (fun () -> Tctx.create env) in
  env.Sema.routine
  |> step "inspector" flags.Flags.inspector (Inspector.routine ctx)
  |> step "lower" true (Lower.routine ctx flags)
  |> step "interchange" flags.Flags.interchange Interchange.routine
  |> step "hoist" flags.Flags.hoist (Hoist.routine ctx)
  |> step "cse" flags.Flags.cse (Cse.routine ctx)
  |> step "divmod" flags.Flags.fp_divmod Divmod.routine

let compile_layers tr ~op acc (p : Suite.program) =
  let span name f = Spans.with_span tr ~op name f in
  List.iter
    (fun (fname, src) ->
      acc.lines <- acc.lines + List.length (String.split_on_char '\n' src);
      match span "frontend.parse" (fun () -> Ddsm.parse ~fname src) with
      | Error _ -> ()
      | Ok file -> (
          match span "sema.analyse" (fun () -> Sema.analyse_file file) with
          | Error _ -> ()
          | Ok envs ->
              List.iter
                (fun (env : Sema.env) ->
                  let flags = Flags.all_on in
                  let stepped = pipeline_steps tr ~op flags env in
                  let whole = span "transform.guard" (fun () -> Pipeline.run flags env) in
                  if compare stepped whole <> 0 && acc.guard = None then
                    acc.guard <-
                      Some
                        (Printf.sprintf
                           "the step-by-step pipeline differs from Pipeline.run \
                            on %s of %s"
                           env.Sema.routine.Decl.rname p.Suite.name);
                  acc.nodes_in <- acc.nodes_in + ir_nodes env.Sema.routine;
                  acc.nodes_out <- acc.nodes_out + ir_nodes whole)
                envs))
    p.files

(* A growable record of one run's probe stream: (proc, addr, write) packed
   in one int, the accessing processor's clock in another. *)
type stream = { mutable ev : int array; mutable now : int array; mutable n : int }

let record s (e : Memsys.access_event) =
  if s.n = Array.length s.ev then begin
    let grow a = Array.append a (Array.make (max 1024 (Array.length a)) 0) in
    s.ev <- grow s.ev;
    s.now <- grow s.now
  end;
  s.ev.(s.n) <-
    (e.Memsys.ev_addr lsl 9) lor (e.Memsys.ev_proc lsl 1)
    lor Bool.to_int e.Memsys.ev_write;
  s.now.(s.n) <- e.Memsys.ev_now;
  s.n <- s.n + 1

let replay mem s =
  for i = 0 to s.n - 1 do
    let e = s.ev.(i) in
    ignore
      (Memsys.access mem ~proc:((e lsr 1) land 0xff) ~addr:(e lsr 9)
         ~write:(e land 1 = 1) ~now:s.now.(i))
  done

let timed f =
  let t0 = Spans.now () in
  let r = f () in
  (r, Spans.now () -. t0)

(* Memsys and observer layers of one program; [prog] is the op's image *)
let machine_layers tr ~op acc (w : Suite.workload) prog =
  let span name f = Spans.with_span tr ~op name f in
  let rt = Ops.make_rt w in
  span "exec.elaborate" (fun () -> Engine.elaborate prog ~rt);
  (* the engine installs no probe of its own on a run without observers *)
  let rt = Ops.make_rt w in
  let s = { ev = [||]; now = [||]; n = 0 } in
  Memsys.set_probe rt.Ddsm_runtime.Rt.mem (Some (record s));
  ignore (span "machine.record" (fun () -> Ddsm.run prog ~rt ()));
  Memsys.set_probe rt.Ddsm_runtime.Rt.mem None;
  let full = Counters.to_assoc (Memsys.total_counters rt.Ddsm_runtime.Rt.mem) in
  let rt' = Ops.make_rt w in
  Engine.elaborate prog ~rt:rt';
  let (), replay_s = timed (fun () -> span "machine.replay" (fun () -> replay rt'.Ddsm_runtime.Rt.mem s)) in
  let covered =
    Counters.to_assoc (Memsys.total_counters rt'.Ddsm_runtime.Rt.mem) = full
  in
  let observed ?profile ?sanitize name =
    let rt = Ops.make_rt w in
    snd (timed (fun () -> span name (fun () -> Ddsm.run prog ~rt ?profile ?sanitize ())))
  in
  let plain = observed "observe.plain" in
  let profiled = observed "observe.profile" ~profile:(Ddsm.Profile.create ()) in
  let sanitized = observed "observe.sanitize" ~sanitize:(Ops.sanitizer w) in
  if covered then begin
    acc.replayed <- acc.replayed + s.n;
    acc.replay_s <- acc.replay_s +. replay_s;
    acc.engine_s <- acc.engine_s +. (plain -. replay_s)
  end;
  acc.profile_s <- acc.profile_s +. (profiled -. plain);
  acc.sanitize_s <- acc.sanitize_s +. (sanitized -. plain)

let file_size path = (Unix.stat path).Unix.st_size

(* Runs the traced pass and returns the per-layer metrics, the traced
   ops_per_s and the spans. The ops run first, back to back as in a timed
   pass and keeping nothing but counts, so they see the heap a timed op
   sees; the per-program breakdowns follow, each after a full major GC.
   [check] gets each op's result, as in a timed pass. *)
let pass (w : Suite.workload) ~image_path ~check =
  let tr = Spans.create () in
  let acc =
    {
      lines = 0; nodes_in = 0; nodes_out = 0; guard = None; recompilations = 0;
      image_bytes = 0; redist_pages = 0; gather_inspections = 0; cycles = 0;
      counters = Counters.create (); replayed = 0; replay_s = 0.;
      engine_s = 0.; profile_s = 0.; sanitize_s = 0.;
    }
  in
  let hook op = { Ops.call = (fun _ name f -> Spans.with_span tr ~op name f) } in
  Gc.full_major ();
  let ok =
    List.mapi
      (fun i (p : Suite.program) ->
        let r =
          Spans.with_span tr ~op:i "op" (fun () ->
              Ops.run (hook i) w p ~path:(image_path i))
        in
        check i r;
        match r with
        | Error _ -> false
        | Ok { Ops.rt; outcome = o; _ } ->
            acc.redist_pages <- acc.redist_pages + rt.Ddsm_runtime.Rt.redist_pages;
            acc.gather_inspections <-
              acc.gather_inspections + rt.Ddsm_runtime.Rt.gather_inspections;
            acc.cycles <- acc.cycles + o.Ddsm.Engine.cycles;
            Counters.add acc.counters o.Ddsm.Engine.counters;
            true)
      w.Suite.programs
  in
  List.iteri
    (fun i ((p : Suite.program), ok) ->
      let path = image_path i in
      if ok then begin
        Gc.full_major ();
        Spans.with_span tr ~op:i "layers" (fun () ->
            (* the set-up's pflc build, so that the link and save layers
               are measured on workloads whose op does not compile *)
            if not w.Suite.compile_per_op then ignore (Ops.build (hook i) p ~path);
            match Ddsm.load_image ~path with
            | Error _ -> ()
            | Ok linked ->
                acc.recompilations <-
                  acc.recompilations + linked.Ddsm_linker.Prelink.recompilations;
                acc.image_bytes <- acc.image_bytes + file_size path;
                compile_layers tr ~op:i acc p;
                machine_layers tr ~op:i acc w (Ddsm.prog_of_linked linked))
      end)
    (List.combine w.Suite.programs ok);
  let self = Spans.self_time tr in
  let ratio a b = if b = 0 then 0. else float a /. float b in
  let c = acc.counters in
  let accesses = Counters.accesses c in
  let m = Metric.v in
  let transform =
    match acc.guard with
    | Some why ->
        Printf.printf "transform.* omitted: %s\n" why;
        []
    | None ->
        List.map
          (fun step -> m ("transform." ^ step ^ "_s") "s" (self ("transform." ^ step)))
          [ "tctx"; "inspector"; "lower"; "interchange"; "hoist"; "cse"; "divmod" ]
        @ [
            m "transform.ir_nodes_in" "count" (float acc.nodes_in);
            m "transform.ir_nodes_out" "count" (float acc.nodes_out);
          ]
  in
  let parse_s = self "frontend.parse" in
  let metrics =
    [
      m "frontend.parse_s" "s" parse_s;
      m "frontend.lines_per_s" "lines/s" (float acc.lines /. parse_s);
      m "sema.analyse_s" "s" (self "sema.analyse");
    ]
    @ transform
    @ [
        m "linker.prelink_s" "s" (self "Ddsm.link");
        m "linker.recompilations" "count" (float acc.recompilations);
        m "linker.image_save_s" "s" (self "Ddsm.save_image");
        m "linker.image_load_s" "s" (self "Ddsm.load_image");
        m "linker.image_kb" "KiB" (float acc.image_bytes /. 1024.);
        m "runtime.make_rt_s" "s" (self "Ddsm.make_rt");
        m "exec.elaborate_s" "s" (self "exec.elaborate");
        m "runtime.redist_pages" "count" (float acc.redist_pages);
        m "runtime.gather_inspections" "count" (float acc.gather_inspections);
        m "exec.run_s" "s" (self "Ddsm.run");
        m "exec.engine_s" "s" acc.engine_s ~note:"replayed programs only";
        m "exec.sim_cycles" "cycles" (float acc.cycles);
        m "machine.accesses" "count" (float accesses);
        m "machine.replay_s" "s" acc.replay_s ~note:"replayed programs only";
        m "machine.ns_per_access" "ns" (acc.replay_s *. 1e9 /. float (max 1 acc.replayed));
        m "machine.replay_coverage" "ratio" (ratio acc.replayed accesses);
        m "machine.l1_miss_frac" "ratio" (ratio c.Counters.l1_misses accesses);
        m "machine.remote_fill_frac" "ratio"
          (ratio c.Counters.remote_fills (c.Counters.local_fills + c.Counters.remote_fills));
        m "observe.profile_s" "s" acc.profile_s;
        m "observe.sanitize_s" "s" acc.sanitize_s;
      ]
  in
  let op_s = Spans.fold tr ~name:"op" (fun a s -> a +. Spans.duration s) 0. in
  (metrics, float (List.length w.Suite.programs) /. op_s, tr)

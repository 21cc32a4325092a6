(* The benchmark's four workloads: which programs each runs, on which
   simulated machine, and what one op of it is. README.md records why each
   workload was chosen. *)

module W = Workloads
module Sema = Ddsm_sema.Sema
module Interp = Ddsm_fuzz.Interp

type program = {
  name : string;
  files : (string * string) list;  (** (file name, source), in link order *)
}

type workload = {
  name : string;
  programs : program list;
  nprocs : int;
  machine_procs : int;
  compile_per_op : bool;
      (** an op is [pflc build] + [pflrun]; otherwise [pflrun] on an image
          built at set-up *)
  observed : bool;  (** ops attach the profiler and the sanitizer *)
}

let names = [ "kernels-8p"; "kernels-128p"; "compile-fuzz"; "observed-irregular" ]

(* read from the source tree the benchmark runs in *)
let examples names =
  List.map
    (fun n ->
      let fname = Filename.concat "examples/programs" (n ^ ".pf") in
      { name = n ^ ".pf"; files = [ (fname, In_channel.with_open_bin fname In_channel.input_all) ] })
    names

let kernel name src = { name; files = [ (name ^ ".pf", src) ] }

(* the example kernels plus the figure kernels of bench/workloads.ml, sized
   so that one pass takes about half a second at 8 procs *)
let kernels () =
  examples [ "transpose"; "lu"; "conv" ]
  @ [
      kernel "transpose96-reshaped" (W.transpose ~n:96 ~iters:2 W.Reshaped);
      kernel "transpose96-first-touch" (W.transpose ~n:96 ~iters:2 W.First_touch);
      kernel "lu12-reshaped" (W.lu ~n:12 ~iters:2 W.Reshaped);
      kernel "conv128-two-level-reshaped"
        (W.convolution ~n:128 ~iters:2 ~two_level:true W.Reshaped);
    ]

(* The reference output: the interpreter runs the post-sema IR with no
   machine model, so it shares no code with the engine's execution. *)
let reference_prints (p : program) =
  let ( let* ) = Result.bind in
  let* envs =
    List.fold_left
      (fun acc (fname, src) ->
        let* acc = acc in
        match Ddsm_core.Ddsm.parse ~fname src with
        | Error e -> Error e
        | Ok file -> (
            match Sema.analyse_file file with
            | Error es -> Error (String.concat "; " es)
            | Ok envs -> Ok ((fname, envs) :: acc)))
      (Ok []) p.files
  in
  match Interp.run (List.rev envs) with
  | Ok image -> Ok image.Interp.prints
  | Error Interp.F_timeout -> Error "interpreter step budget exhausted"
  | Error (Interp.F_user m) -> Error ("interpreter: " ^ m)
  | Error (Interp.F_unsupported m) -> Error ("interpreter: unsupported " ^ m)

(* Generated multi-file programs. Program i's seed is derived from the
   workload seed; a candidate the interpreter cannot run to completion
   (a generated runtime error or an over-long loop nest) is skipped for the
   next one, so no op of the workload is expected to fail. Returns each
   program with its reference prints. *)
let fuzz ~seed ~count =
  let size = Ddsm_fuzz.Gen.of_level 24 in
  let rec go k acc n =
    if n = count then List.rev acc
    else
      let case_seed = (seed * 1_000_003) + k in
      let spec = Ddsm_fuzz.Gen.generate ~size ~seed:case_seed () in
      let p =
        { name = Printf.sprintf "fuzz-%d" case_seed; files = Ddsm_fuzz.Spec.render spec }
      in
      match reference_prints p with
      | Ok prints -> go (k + 1) ((p, prints) :: acc) (n + 1)
      | Error _ -> go (k + 1) acc n
  in
  go 0 [] 0

let make ~seed ~fuzz_count name =
  let fixed programs =
    List.map
      (fun p ->
        match reference_prints p with
        | Ok prints -> (p, prints)
        | Error e -> failwith (Printf.sprintf "%s: %s" p.name e))
      programs
  in
  let w ~programs ~nprocs ~machine_procs ?(compile_per_op = false)
      ?(observed = false) () =
    ( { name; programs = List.map fst programs; nprocs; machine_procs; compile_per_op; observed },
      List.map snd programs )
  in
  match name with
  | "kernels-8p" -> w ~programs:(fixed (kernels ())) ~nprocs:8 ~machine_procs:8 ()
  | "kernels-128p" ->
      w ~programs:(fixed (kernels ())) ~nprocs:128 ~machine_procs:128 ()
  | "compile-fuzz" ->
      w ~programs:(fuzz ~seed ~count:fuzz_count) ~nprocs:4 ~machine_procs:8
        ~compile_per_op:true ()
  | "observed-irregular" ->
      w
        ~programs:
          (fixed
             (examples
                [ "redistribute"; "spmv"; "graph"; "portions"; "relax"; "conv" ]))
        ~nprocs:32 ~machine_procs:32 ~observed:true ()
  | n -> invalid_arg ("unknown workload " ^ n)

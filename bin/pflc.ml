(* pflc — compiler/linker driver for the mini-Fortran data-distribution
   language. Mirrors the paper's toolchain: per-file compilation emits an
   object (.pfo) whose shadow section records the file's routines, reshaped
   call signatures and common blocks (`pflc dump` prints it as text, as the
   paper's shadow file); linking runs the pre-linker,
   which propagates distribute_reshape directives across files and clones
   subroutines as needed (§5), then writes a program image (.pfi) for
   pflrun. *)

open Cmdliner
module Ddsm = Ddsm_core.Ddsm
module Flags = Ddsm_core.Ddsm.Flags

let flags_term =
  let mk tile peel skew hoist cse fp inter insp no_opt =
    if no_opt then Flags.all_off
    else
      {
        Flags.tile = not tile;
        peel = not peel;
        skew = not skew;
        hoist = not hoist;
        cse = not cse;
        fp_divmod = not fp;
        interchange = not inter;
        inspector = not insp;
      }
  in
  Term.(
    const mk
    $ Arg.(value & flag & info [ "no-tile" ] ~doc:"Disable §7.1 tiling.")
    $ Arg.(value & flag & info [ "no-peel" ] ~doc:"Disable §7.1 peeling.")
    $ Arg.(value & flag & info [ "no-skew" ] ~doc:"Disable §7.1 loop skewing.")
    $ Arg.(value & flag & info [ "no-hoist" ] ~doc:"Disable §7.2 hoisting.")
    $ Arg.(value & flag & info [ "no-cse" ] ~doc:"Disable §7.2 CSE.")
    $ Arg.(value & flag & info [ "no-fp-divmod" ] ~doc:"Disable §7.3 FP div/mod.")
    $ Arg.(value & flag & info [ "no-interchange" ] ~doc:"Disable §7.1.1 interchange.")
    $ Arg.(
        value & flag
        & info [ "no-inspector" ]
            ~doc:"Disable the inspector-executor transformation of irregular (indirect-subscript) loops.")
    $ Arg.(value & flag & info [ "O0" ] ~doc:"Disable all reshaped-array optimizations."))

(* Exit codes, matching pflrun: 1 = usage / IO (unreadable input,
   unwritable output), 2 = the program was rejected (parse, semantic or
   link error — always with a source location), 3 = internal error. *)
let err_exit es =
  List.iter (fun e -> Printf.eprintf "%s\n" e) es;
  exit 1

let reject_exit es =
  List.iter (fun e -> Printf.eprintf "%s\n" e) es;
  exit 2

let compile_cmd =
  let run flags srcs output =
    (* one -o path cannot name an object per source: refuse before any
       object is written *)
    (match (output, srcs) with
    | Some o, _ :: _ :: _ ->
        err_exit
          [
            Printf.sprintf
              "pflc compile: -o %s names one object but %d sources were given; \
               drop -o (each SRC.pf gets SRC.pfo) or compile one at a time"
              o (List.length srcs);
          ]
    | _ -> ());
    List.iter
      (fun src ->
        match Ddsm.compile_path ~flags src with
        | Error es -> reject_exit es
        | Ok obj ->
            let out =
              match output with
              | Some o -> o
              | None -> Filename.remove_extension src ^ ".pfo"
            in
            Ddsm_linker.Objfile.save obj ~path:out;
            Printf.printf "%s -> %s (object + shadow section)\n" src out)
      srcs
  in
  let srcs =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"SRC.pf" ~doc:"Source files.")
  in
  let output =
    Arg.(value & opt (some string) None & info [ "o" ] ~docv:"OUT" ~doc:"Object path (one source only; default SRC.pfo).")
  in
  Cmd.v (Cmd.info "compile" ~doc:"Compile sources to objects, each with its shadow section.")
    Term.(const run $ flags_term $ srcs $ output)

let link_objs paths output verbose =
  let objs =
    List.map
      (fun p ->
        match Ddsm_linker.Objfile.load ~path:p with
        | Ok o -> o
        (* a corrupt/truncated/stale object is a diagnosed rejection (the
           message is already located at the path), not a usage error *)
        | Error e -> reject_exit [ e ])
      paths
  in
  match Ddsm_linker.Prelink.link objs with
  | Error es -> reject_exit es
  | Ok l ->
      if verbose then begin
        Printf.printf "program unit: %s\n" l.Ddsm_linker.Prelink.main;
        Printf.printf "recompilations: %d\n" l.Ddsm_linker.Prelink.recompilations;
        List.iter
          (fun (o, c) -> Printf.printf "cloned %s -> %s\n" o c)
          l.Ddsm_linker.Prelink.clones
      end;
      Ddsm.save_image l ~path:output;
      Printf.printf "linked %d routine(s) -> %s\n"
        (List.length l.Ddsm_linker.Prelink.routines)
        output

let link_cmd =
  let objs =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"OBJ.pfo" ~doc:"Objects.")
  in
  let output =
    Arg.(value & opt string "a.pfi" & info [ "o" ] ~docv:"OUT.pfi" ~doc:"Image path.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Report cloning.") in
  Cmd.v (Cmd.info "link" ~doc:"Pre-link objects (propagating reshape directives) into an image.")
    Term.(const (fun o out v -> link_objs o out v) $ objs $ output $ verbose)

let build_cmd =
  let run flags srcs output verbose =
    let objs =
      List.map
        (fun src ->
          match Ddsm.compile_path ~flags src with
          | Error es -> reject_exit es
          | Ok obj -> obj)
        srcs
    in
    match Ddsm_linker.Prelink.link objs with
    | Error es -> reject_exit es
    | Ok l ->
        if verbose then
          List.iter
            (fun (o, c) -> Printf.printf "cloned %s -> %s\n" o c)
            l.Ddsm_linker.Prelink.clones;
        Ddsm.save_image l ~path:output;
        Printf.printf "built %s from %d file(s)\n" output (List.length srcs)
  in
  let srcs =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"SRC.pf" ~doc:"Sources.")
  in
  let output =
    Arg.(value & opt string "a.pfi" & info [ "o" ] ~docv:"OUT.pfi" ~doc:"Image path.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Report cloning.") in
  Cmd.v (Cmd.info "build" ~doc:"Compile and link in one step.")
    Term.(const run $ flags_term $ srcs $ output $ verbose)

let check_cmd =
  let run srcs =
    let ok = ref true in
    List.iter
      (fun src ->
        match Ddsm.compile_path src with
        | Error es ->
            ok := false;
            List.iter (fun e -> Printf.eprintf "%s\n" e) es
        | Ok _ -> Printf.printf "%s: ok\n" src)
      srcs;
    if not !ok then exit 2
  in
  let srcs =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"SRC.pf" ~doc:"Sources.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Parse and semantically check sources (directive legality, §6 compile-time checks) without producing objects.")
    Term.(const run $ srcs)

let dump_cmd =
  let run flags src =
    match Ddsm.compile_path ~flags src with
    | Error es -> reject_exit es
    | Ok obj ->
        List.iter
          (fun (u : Ddsm_linker.Objfile.unit_) ->
            Format.printf "%a@.@." Ddsm_ir.Decl.pp_routine
              u.Ddsm_linker.Objfile.env.Ddsm_sema.Sema.routine)
          obj.Ddsm_linker.Objfile.units;
        print_string (Ddsm_linker.Shadow.to_string obj.Ddsm_linker.Objfile.shadow)
  in
  let src = Arg.(required & pos 0 (some file) None & info [] ~docv:"SRC.pf") in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print the lowered intermediate code and shadow entries.")
    Term.(const run $ flags_term $ src)

let () =
  let info =
    Cmd.info "pflc" ~version:"1.0"
      ~doc:"Compiler for the mini-Fortran data-distribution language (PLDI'97 reproduction)."
  in
  try
    exit
      (Cmd.eval ~catch:false
         (Cmd.group info [ compile_cmd; link_cmd; build_cmd; check_cmd; dump_cmd ]))
  with
  (* OS errors from reading sources or writing objects/images (unwritable
     -o path, full disk) take the documented usage/IO exit-1 path.  A
     [Failure] escaping the pipeline is a compiler bug, not a rejection:
     report it as such on exit 3 so campaigns and CI never mistake it for
     a diagnosed error. *)
  | Sys_error m -> err_exit [ m ]
  | Failure m ->
      Printf.eprintf "pflc: internal error: %s\n" m;
      exit 3

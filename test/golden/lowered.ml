(* lowered.exe FILE.pf... — the IR golden.

   Pins what the compile path produces, before anything runs. Each FILE is
   compiled with every optimization on and with every one off, then
   linked; the output is each linked routine as [Decl.pp_routine] prints
   it, the clone list, and each object's shadow text after linking.
   Generated programs (Gen seeds 0-199 at [of_level 24], every
   optimization on) print one MD5 of that same text per seed. Any change
   to a lowered routine, a fresh-name choice, a clone or a shadow record
   shows up as a diff against lowered.expected. *)

module Ddsm = Ddsm_core.Ddsm
module Flags = Ddsm.Flags
module Objfile = Ddsm_linker.Objfile
module Prelink = Ddsm_linker.Prelink
module Shadow = Ddsm_linker.Shadow
module Gen = Ddsm_fuzz.Gen
module Spec = Ddsm_fuzz.Spec

let compile_all f xs =
  List.fold_right
    (fun x acc ->
      match (f x, acc) with
      | Ok o, Ok os -> Ok (o :: os)
      | Error es, _ -> Error es
      | _, (Error _ as e) -> e)
    xs (Ok [])

let render build =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  (match build with
  | Error es -> Format.fprintf ppf "compile error: %s@." (String.concat "; " es)
  | Ok objs -> (
      match Prelink.link objs with
      | Error es -> Format.fprintf ppf "link error: %s@." (String.concat "; " es)
      | Ok (l : Prelink.linked) ->
          Format.fprintf ppf "main %s, %d recompilation(s)@." l.main
            l.recompilations;
          List.iter
            (fun (name, (env : Ddsm_sema.Sema.env)) ->
              Format.fprintf ppf "-- routine %s@.%a@." name
                Ddsm_ir.Decl.pp_routine env.routine)
            l.routines;
          Format.fprintf ppf "-- clones@.";
          List.iter
            (fun (callee, clone) -> Format.fprintf ppf "%s -> %s@." callee clone)
            l.clones;
          List.iter
            (fun (o : Objfile.t) ->
              Format.fprintf ppf "-- shadow %s@.%s@."
                (Filename.basename o.src.Ddsm_ir.Decl.fname)
                (Shadow.to_string o.shadow))
            objs));
  Format.pp_print_flush ppf ();
  Buffer.contents b

let () =
  let paths =
    List.sort
      (fun a b -> compare (Filename.basename a) (Filename.basename b))
      (List.tl (Array.to_list Sys.argv))
  in
  List.iter
    (fun path ->
      List.iter
        (fun (fl, flags) ->
          Printf.printf "== %s %s\n%s" (Filename.basename path) fl
            (render (compile_all (Ddsm.compile_path ~flags) [ path ])))
        [ ("all_on", Flags.all_on); ("all_off", Flags.all_off) ])
    paths;
  let size = Gen.of_level 24 in
  for seed = 0 to 199 do
    let files = Spec.render (Gen.generate ~size ~seed ()) in
    let text =
      render
        (compile_all
           (fun (fname, src) ->
             Ddsm.compile_source ~flags:Flags.all_on ~fname src)
           files)
    in
    Printf.printf "gen/%d %s\n" seed (Digest.to_hex (Digest.string text))
  done

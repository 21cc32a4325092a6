(* cycles.exe FILE.pf... — the cycle golden.

   Prints one line per run: the simulated cycle count, a digest of the
   print transcript, every machine counter and the scheduling decisions
   (parks, direct continues, forks). Runs cover generated programs (Gen
   seeds 0-499 at 1 and 4 processors, checks and bounds on, as the fuzz
   differential runs them) and each FILE at 1, 8 and 128 processors with
   pflc/pflrun defaults. Any moved cycle, counter, print or scheduling
   decision shows up as a diff against cycles.expected. *)

module Ddsm = Ddsm_core.Ddsm
module Counters = Ddsm_machine.Counters
module Gen = Ddsm_fuzz.Gen
module Spec = Ddsm_fuzz.Spec

let report name nprocs result =
  let body =
    match result with
    | Error m -> "error " ^ m
    | Ok (o : Ddsm.Engine.outcome) ->
        String.concat " "
          (Printf.sprintf "cycles=%d prints=%s" o.cycles
             (Digest.to_hex (Digest.string (String.concat "\n" o.prints)))
          :: List.map
               (fun (k, v) -> Printf.sprintf "%s=%d" k v)
               (Counters.to_assoc o.counters)
          @ [
              Printf.sprintf "parks=%d direct=%d forks=%d" o.parks
                o.direct_continues o.forks;
            ])
  in
  Printf.printf "%s p%d %s\n" name nprocs body

let run prog ~heap_words ~bounds nprocs =
  let rt = Ddsm.make_rt ~heap_words ~nprocs () in
  Result.map_error Ddsm.Diag.code (Ddsm.run prog ~rt ~bounds ())

let link objs =
  match Ddsm.link objs with
  | Ok (prog, _) -> Ok prog
  | Error es -> Error (String.concat "; " es)

let compile_all f xs =
  List.fold_right
    (fun x acc ->
      match (f x, acc) with
      | Ok o, Ok os -> Ok (o :: os)
      | Error es, _ -> Error (String.concat "; " es)
      | _, (Error _ as e) -> e)
    xs (Ok [])

let case name build ~heap_words ~bounds procs =
  match Result.bind build link with
  | Error m -> List.iter (fun p -> report name p (Error ("build: " ^ m))) procs
  | Ok prog ->
      List.iter (fun p -> report name p (run prog ~heap_words ~bounds p)) procs

let () =
  for seed = 0 to 499 do
    let files = Spec.render (Gen.generate ~seed ()) in
    case
      (Printf.sprintf "gen/%d" seed)
      (compile_all (fun (fname, src) -> Ddsm.compile_source ~fname src) files)
      ~heap_words:(1 lsl 18) ~bounds:true [ 1; 4 ]
  done;
  let paths =
    List.sort
      (fun a b -> compare (Filename.basename a) (Filename.basename b))
      (List.tl (Array.to_list Sys.argv))
  in
  List.iter
    (fun path ->
      case (Filename.basename path)
        (compile_all Ddsm.compile_path [ path ])
        ~heap_words:(1 lsl 24) ~bounds:false [ 1; 8; 128 ])
    paths

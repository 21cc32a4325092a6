module Flags = Ddsm_transform.Flags
module Engine = Ddsm_exec.Engine
module Prog = Ddsm_exec.Prog
module Objfile = Ddsm_linker.Objfile
module Prelink = Ddsm_linker.Prelink
module Config = Ddsm_machine.Config
module Pagetable = Ddsm_machine.Pagetable
module Rt = Ddsm_runtime.Rt
module Fault = Ddsm_check.Fault
module Diag = Ddsm_check.Diag
module Audit = Ddsm_check.Audit
module Profile = Ddsm_report.Profile
module Sanitize = Ddsm_sanitize.Sanitize
module Json = Ddsm_report.Json

type machine = Origin2000 | Scaled of int

let parse ~fname src = Ddsm_frontend.Parser.parse_file ~fname src

let compile_source ?flags ~fname src =
  match parse ~fname src with
  | Error e -> Error [ e ]
  | Ok f -> Objfile.compile ?flags f

let compile_path ?flags path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    compile_source ?flags ~fname:path src
  with Sys_error e -> Error [ e ]

let prog_of_linked (l : Prelink.linked) =
  Prog.create
    (List.map (fun (n, env, code) -> (n, { Prog.env; code })) l.Prelink.routines)
    ~main:l.Prelink.main

let link objs =
  match Prelink.link objs with
  | Error es -> Error es
  | Ok l -> Ok (prog_of_linked l, l)

let config_of_machine machine ~nprocs =
  match machine with
  | Origin2000 -> Config.origin2000 ~nprocs
  | Scaled factor -> Config.scaled ~nprocs ~factor ()

let make_rt ?(machine = Scaled 64) ?(policy = Pagetable.First_touch)
    ?(heap_words = 1 lsl 24) ?machine_procs ?fault ~nprocs () =
  let hw = match machine_procs with Some m -> max m nprocs | None -> nprocs in
  Rt.create (config_of_machine machine ~nprocs:hw) ~policy ~heap_words
    ~job_procs:nprocs ?fault ()

let make_sanitizer machine ~nprocs =
  let cfg = config_of_machine machine ~nprocs in
  Sanitize.create ~nprocs ~line_bytes:cfg.Config.l2.Config.line_bytes
    ~page_bytes:cfg.Config.page_bytes ()

let run prog ~rt ?checks ?bounds ?max_cycles ?audit ?stall_limit ?profile
    ?sanitize () =
  let observers =
    List.filter_map Fun.id
      [ Option.map Profile.observe profile; Option.map Sanitize.observe sanitize ]
  in
  Engine.run prog ~rt ?checks ?bounds ?max_cycles ?audit ?stall_limit
    ~observers ()

let run_source ?flags ?machine ?policy ?heap_words ?machine_procs ?fault
    ?(nprocs = 8) ?checks ?bounds ?max_cycles ?audit ?profile ?sanitize src =
  match compile_source ?flags ~fname:"<source>" src with
  | Error es -> Error (String.concat "\n" es)
  | Ok obj -> (
      match link [ obj ] with
      | Error es -> Error (String.concat "\n" es)
      | Ok (prog, _) -> (
          let rt =
            make_rt ?machine ?policy ?heap_words ?machine_procs ?fault ~nprocs
              ()
          in
          match
            run prog ~rt ?checks ?bounds ?max_cycles ?audit ?profile ?sanitize
              ()
          with
          | Ok _ as ok -> ok
          | Error d -> Error (Diag.to_string d)))

(* Images ride the hardened Binfile container (magic/kind/version header,
   payload digest, atomic install): a truncated, stale or foreign .pfi is
   a located [Error], never a Marshal crash. *)

let save_image (l : Prelink.linked) ~path =
  Ddsm_linker.Binfile.save ~kind:"image" ~path l

let load_image ~path : (Prelink.linked, string) result =
  Ddsm_linker.Binfile.load ~kind:"image" ~path

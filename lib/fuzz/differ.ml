module Ddsm = Ddsm_core.Ddsm
module Sema = Ddsm_sema.Sema
module Engine = Ddsm_exec.Engine
module Prog = Ddsm_exec.Prog
module Diag = Ddsm_check.Diag
module Fault = Ddsm_check.Fault
module Rt = Ddsm_runtime.Rt
module Darray = Ddsm_runtime.Darray
module Counters = Ddsm_machine.Counters
module Pagetable = Ddsm_machine.Pagetable
module Config = Ddsm_machine.Config
module Jobs = Ddsm_util.Jobs
module Sanitize = Ddsm_sanitize.Sanitize

type options = {
  fault : bool;
  race : bool;
  jobs : int;
  max_cycles : int;
  step_budget : int;
  case_seed : int;
}

let default ~seed =
  {
    fault = false;
    race = false;
    jobs = 2;
    max_cycles = 60_000_000;
    step_budget = 2_000_000;
    case_seed = seed;
  }

type verdict =
  | Pass
  | Timeout
  | Reject of string
  | Fail of string
  | Diverged of { kind : string; detail : string }

let kind_of = function
  | Pass -> "ok"
  | Timeout -> "timeout"
  | Reject _ -> "reject"
  | Fail _ -> "fail"
  | Diverged { kind; _ } -> "diverged:" ^ kind

(* ------------------------------------------------------------------ *)
(* Engine legs *)

type leg = {
  l_nprocs : int;
  l_policy : Pagetable.policy;
  l_fault : Fault.t option;
}

type engine_out = {
  e_cycles : int;
  e_prints : string list;
  e_counters : (string * int) list;
  e_image : (string * int64 array) list;
}

(* the final value of every element in Fortran (column-major) order *)
let bits_of_darray rt (d : Darray.t) =
  let n = Darray.element_count d in
  let nd = Array.length d.Darray.extents in
  let out = Array.make n 0L in
  let idx = Array.copy d.Darray.lower in
  for i = 0 to n - 1 do
    let addr = Darray.word_addr d idx in
    out.(i) <- Int64.bits_of_float (Rt.read rt ~addr ~elem:d.Darray.elem);
    let rec bump k =
      if k < nd then begin
        idx.(k) <- idx.(k) + 1;
        if idx.(k) - d.Darray.lower.(k) >= d.Darray.extents.(k) then begin
          idx.(k) <- d.Darray.lower.(k);
          bump (k + 1)
        end
      end
    in
    bump 0
  done;
  out

(* Clone routines get fresh qualified names for their locals, so the
   comparable part of an image is the commons plus the program unit's own
   arrays; the generator only ever observes those. *)
let comparable_image ~main image =
  let prefix = main ^ "/" in
  List.filter
    (fun (name, _) ->
      String.length name > 0
      && (name.[0] = '/'
         || String.length name >= String.length prefix
            && String.sub name 0 (String.length prefix) = prefix))
    image

let image_of_rt rt ~main =
  Hashtbl.fold
    (fun name d acc -> (name, bits_of_darray rt d) :: acc)
    rt.Rt.arrays []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> comparable_image ~main

let run_leg prog (opts : options) (leg : leg) ~sanitize :
    (engine_out, Diag.t) result =
  let rt =
    Ddsm.make_rt ~policy:leg.l_policy
      ~heap_words:(1 lsl 18)
      ?fault:leg.l_fault ~nprocs:leg.l_nprocs ()
  in
  match
    Ddsm.run prog ~rt ~checks:true ~bounds:true ~max_cycles:opts.max_cycles
      ~stall_limit:2_000_000 ?sanitize ()
  with
  | Ok o ->
      Ok
        {
          e_cycles = o.Engine.cycles;
          e_prints = o.Engine.prints;
          e_counters = Counters.to_assoc o.Engine.counters;
          e_image = image_of_rt rt ~main:prog.Prog.main;
        }
  | Error d -> Error d

let diag_is_budget d =
  match d.Diag.reason with
  | Diag.Cycle_budget _ | Diag.Watchdog_stall _ -> true
  | _ -> false

let short s = if String.length s > 160 then String.sub s 0 160 ^ "..." else s

(* ------------------------------------------------------------------ *)

exception Done of verdict

let return v = raise (Done v)

let image_diff a b =
  let rec go = function
    | [], [] -> None
    | (n, _) :: _, [] | [], (n, _) :: _ -> Some (n ^ ": present on one side")
    | (na, va) :: ra, (nb, vb) :: rb ->
        if na <> nb then Some (Printf.sprintf "%s vs %s" na nb)
        else if va <> vb then
          let i = ref 0 in
          while !i < Array.length va && va.(!i) = vb.(!i) do
            incr i
          done;
          Some
            (Printf.sprintf "%s[%d]: %Lx vs %Lx" na !i
               (if !i < Array.length va then va.(!i) else 0L)
               (if !i < Array.length vb then vb.(!i) else 0L))
        else go (ra, rb)
  in
  go (a, b)

let check_images ~kind a b =
  match image_diff a b with
  | Some d -> return (Diverged { kind; detail = d })
  | None -> ()

let check_prints ~kind a b =
  if a <> b then
    return
      (Diverged
         {
           kind;
           detail =
             Printf.sprintf "prints %d vs %d lines" (List.length a)
               (List.length b);
         })

let analyse opts files =
  (* 1. compile + link; any refusal is a Reject *)
  let objs, errs =
    List.fold_left
      (fun (objs, errs) (fname, src) ->
        match Ddsm.compile_source ~fname src with
        | Ok o -> (o :: objs, errs)
        | Error es -> (objs, errs @ es))
      ([], []) files
  in
  if errs <> [] then return (Reject (short (String.concat "; " errs)));
  let prog =
    match Ddsm.link (List.rev objs) with
    | Ok (prog, _) -> prog
    | Error es -> return (Reject (short (String.concat "; " es)))
  in
  (* 2. reference interpretation over the unlowered post-sema IR *)
  let envs =
    List.map
      (fun (fname, src) ->
        match Ddsm.parse ~fname src with
        | Error e -> return (Reject (short e))
        | Ok file -> (
            match Sema.analyse_file file with
            | Error es -> return (Reject (short (String.concat "; " es)))
            | Ok envs -> (fname, envs)))
      files
  in
  let iref = Interp.run ~budget:opts.step_budget envs in
  (match iref with
  | Error (Interp.F_unsupported m) ->
      return (Reject ("interpreter: unsupported: " ^ short m))
  | Error Interp.F_timeout ->
      (* per-case watchdog: the candidate is pathological; skip the engine
         legs so the campaign keeps moving *)
      return Timeout
  | _ -> ());
  (* 3. engine legs: in-process base + Jobs-dispatched duplicate/variants *)
  let base = { l_nprocs = 4; l_policy = Pagetable.First_touch; l_fault = None } in
  let vfault k nprocs =
    if opts.fault then
      Some (Fault.random ~seed:(opts.case_seed + k) ~nnodes:(max 1 (nprocs / 2)))
    else None
  in
  let variants =
    [
      base;
      {
        l_nprocs = 2;
        l_policy = Pagetable.Round_robin;
        l_fault = vfault 1 2;
      };
      { l_nprocs = 8; l_policy = Pagetable.First_touch; l_fault = vfault 2 8 };
    ]
  in
  let sanitizer =
    if opts.race then
      let cfg = Config.scaled ~nprocs:base.l_nprocs () in
      Some
        (Sanitize.create ~nprocs:base.l_nprocs
           ~line_bytes:cfg.Config.l2.Config.line_bytes
           ~page_bytes:cfg.Config.page_bytes ())
    else None
  in
  let direct = run_leg prog opts base ~sanitize:sanitizer in
  let jobs_out =
    Jobs.map ~jobs:opts.jobs
      (fun leg -> run_leg prog opts leg ~sanitize:None)
      variants
  in
  let dup, v1, v2 =
    match jobs_out with
    | [ a; b; c ] -> (a, b, c)
    | _ -> return (Diverged { kind = "fastpath"; detail = "jobs arity" })
  in
  (* 3a. fast path must be bit-identical to the in-process run *)
  (match (direct, dup) with
  | Ok a, Ok b ->
      check_images ~kind:"fastpath" a.e_image b.e_image;
      check_prints ~kind:"fastpath" a.e_prints b.e_prints;
      if a.e_cycles <> b.e_cycles then
        return
          (Diverged
             {
               kind = "fastpath";
               detail =
                 Printf.sprintf "cycles %d vs %d" a.e_cycles b.e_cycles;
             });
      if a.e_counters <> b.e_counters then
        return (Diverged { kind = "fastpath"; detail = "counters differ" })
  | Error a, Error b ->
      if Diag.code a <> Diag.code b then
        return
          (Diverged
             {
               kind = "fastpath";
               detail = Diag.code a ^ " vs " ^ Diag.code b;
             })
  | Ok _, Error d | Error d, Ok _ ->
      return
        (Diverged { kind = "fastpath"; detail = "ok vs " ^ Diag.code d }));
  (* 3b. sanitizer verdict on the base leg *)
  (match sanitizer with
  | Some s when not (Sanitize.is_clean s) ->
      return
        (Diverged
           {
             kind = "race";
             detail =
               Printf.sprintf "%d races, %d dropped"
                 (List.length (Sanitize.races s))
                 (Sanitize.dropped s);
           })
  | _ -> ());
  (* 3c. interpreter vs engine status matrix *)
  let verdict_base =
    match (iref, direct) with
    | Error Interp.F_timeout, _ -> return Timeout
    | _, Error d when diag_is_budget d -> return Timeout
    | Error (Interp.F_user _), Error ({ Diag.reason = Diag.User _; _ } as d) ->
        Fail (Diag.code d)
    | _, Error d when Diag.is_internal d ->
        return
          (Diverged
             { kind = "engine-internal"; detail = short (Diag.to_string d) })
    | Error (Interp.F_user m), Ok _ ->
        return
          (Diverged
             { kind = "status"; detail = "interp user error vs ok: " ^ short m })
    | Ok _, Error d ->
        return
          (Diverged
             {
               kind = "status";
               detail = "ok vs engine " ^ short (Diag.to_string d);
             })
    | Error (Interp.F_user m), Error d ->
        return
          (Diverged
             {
               kind = "status";
               detail =
                 Printf.sprintf "interp user error (%s) vs engine %s"
                   (short m) (Diag.code d);
             })
    | Error (Interp.F_unsupported _), _ -> assert false (* handled above *)
    | Ok iimg, Ok e ->
        let iarr = comparable_image ~main:prog.Prog.main iimg.Interp.arrays in
        check_prints ~kind:"prints" iimg.Interp.prints e.e_prints;
        check_images ~kind:"values" iarr e.e_image;
        Pass
  in
  (* 3d. variant legs agree with the base on values and prints *)
  (match direct with
  | Ok b ->
      List.iter
        (fun v ->
          match v with
          | Ok (v : engine_out) ->
              check_images ~kind:"variant" b.e_image v.e_image;
              check_prints ~kind:"variant" b.e_prints v.e_prints
          | Error d when diag_is_budget d -> return Timeout
          | Error d when Diag.is_internal d ->
              return
                (Diverged
                   {
                     kind = "engine-internal";
                     detail = short (Diag.to_string d);
                   })
          | Error d ->
              return
                (Diverged
                   {
                     kind = "variant";
                     detail = "base ok vs " ^ short (Diag.to_string d);
                   }))
        [ v1; v2 ]
  | Error bd ->
      List.iter
        (fun v ->
          match v with
          | Error d when Diag.code d = Diag.code bd -> ()
          | Error d when diag_is_budget d || diag_is_budget bd -> ()
          | Error d ->
              return
                (Diverged
                   {
                     kind = "variant";
                     detail = Diag.code bd ^ " vs " ^ Diag.code d;
                   })
          | Ok _ ->
              return
                (Diverged
                   { kind = "variant"; detail = Diag.code bd ^ " vs ok" }))
        [ v1; v2 ]);
  (* 3e. chaos leg: a lost wakeup may deadlock or stall the run, but it must
     come back as a structured diagnosis, not an exception *)
  if opts.fault && opts.case_seed mod 4 = 0 then begin
    let chaos =
      {
        l_nprocs = 4;
        l_policy = Pagetable.First_touch;
        l_fault =
          Some (Fault.make ~lose_wakeup:(1 + (opts.case_seed mod 5)) ());
      }
    in
    match run_leg prog opts chaos ~sanitize:None with
    | Ok _ | Error _ -> ()
  end;
  verdict_base

let run opts files =
  try analyse opts files with
  | Done v -> v
  | e ->
      Diverged
        {
          kind = "exn";
          detail = short (Printexc.to_string e);
        }

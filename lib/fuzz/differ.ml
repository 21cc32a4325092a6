module Ddsm = Ddsm_core.Ddsm
module Sema = Ddsm_sema.Sema
module Engine = Ddsm_exec.Engine
module Prog = Ddsm_exec.Prog
module Diag = Ddsm_check.Diag
module Fault = Ddsm_check.Fault
module Rt = Ddsm_runtime.Rt
module Darray = Ddsm_runtime.Darray
module Layout = Ddsm_dist.Layout
module Counters = Ddsm_machine.Counters
module Pagetable = Ddsm_machine.Pagetable
module Flags = Ddsm_transform.Flags
module Jobs = Ddsm_util.Jobs
module Sanitize = Ddsm_sanitize.Sanitize

type options = {
  fault : bool;
  race : bool;
  jobs : int;
  max_cycles : int;
  case_seed : int;
}

let default ~seed =
  {
    fault = false;
    race = false;
    jobs = 2;
    max_cycles = 60_000_000;
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
  let out = Array.make (Darray.element_count d) 0L and i = ref 0 in
  Layout.iter_box
    (Array.mapi (fun k lo -> [ (lo, lo + d.Darray.extents.(k) - 1) ]) d.Darray.lower)
    (fun idx ->
      let addr = Darray.word_addr d idx in
      out.(!i) <- Int64.bits_of_float (Rt.read rt ~addr ~elem:d.Darray.elem);
      incr i);
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

(* every leg and the sanitizer simulate this preset *)
let machine = Ddsm.Scaled 64

let run_leg prog (opts : options) (leg : leg) ~sanitize :
    (engine_out, Diag.t) result =
  let rt =
    Ddsm.make_rt ~machine ~policy:leg.l_policy
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

(* compile and link every file with one flag set *)
let compile_link ?flags files =
  let objs, errs =
    List.fold_left
      (fun (objs, errs) (fname, src) ->
        match Ddsm.compile_source ?flags ~fname src with
        | Ok o -> (o :: objs, errs)
        | Error es -> (objs, errs @ es))
      ([], []) files
  in
  if errs <> [] then Error (short (String.concat "; " errs))
  else
    match Ddsm.link (List.rev objs) with
    | Ok (prog, _) -> Ok prog
    | Error es -> Error (short (String.concat "; " es))

(* The flags leg's §7 flag set and processor count, both read off the case
   seed so that shrinking and corpus replay rerun the same leg. *)
let leg_flags seed =
  match seed land 3 with
  | 0 -> Flags.all_off
  | 1 -> Flags.tile_peel
  | 2 -> { Flags.all_on with Flags.peel = false }
  | _ ->
      let bits = Hashtbl.hash seed in
      let on k = (bits lsr k) land 1 = 1 in
      {
        Flags.tile = on 0;
        peel = on 1;
        skew = on 2;
        hoist = on 3;
        cse = on 4;
        fp_divmod = on 5;
        interchange = on 6;
        inspector = on 7;
      }

let leg_nprocs seed = [| 1; 3; 5; 6; 7 |].((seed lsr 2) mod 5)

let analyse opts files =
  (* 1. compile + link; any refusal is a Reject *)
  let prog =
    match compile_link files with
    | Ok prog -> prog
    | Error e -> return (Reject e)
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
  let iref = Interp.run envs in
  (match iref with
  | Error (Interp.F_unsupported m) ->
      return (Reject ("interpreter: unsupported: " ^ short m))
  | Error Interp.F_timeout ->
      (* per-case watchdog: the candidate is pathological; skip the engine
         legs so the campaign keeps moving *)
      return Timeout
  | _ -> ());
  (* 3. engine legs: in-process base + Jobs-dispatched duplicate, variants
     and the flags leg, which runs the files compiled with another §7 flag
     set *)
  let base = { l_nprocs = 4; l_policy = Pagetable.First_touch; l_fault = None } in
  let vfault k nprocs =
    if opts.fault then
      Some (Fault.random ~seed:(opts.case_seed + k) ~nnodes:(max 1 (nprocs / 2)))
    else None
  in
  let fprog =
    match compile_link ~flags:(leg_flags opts.case_seed) files with
    | Ok p -> p
    | Error e -> return (Diverged { kind = "flags"; detail = "refused: " ^ e })
  in
  let fnprocs = leg_nprocs opts.case_seed in
  let flags_leg =
    {
      l_nprocs = fnprocs;
      l_policy =
        (if (opts.case_seed lsr 2) land 1 = 0 then Pagetable.First_touch
         else Pagetable.Round_robin);
      l_fault = vfault 3 fnprocs;
    }
  in
  let legs =
    [
      (prog, base);
      ( prog,
        { l_nprocs = 2; l_policy = Pagetable.Round_robin; l_fault = vfault 1 2 }
      );
      ( prog,
        { l_nprocs = 8; l_policy = Pagetable.First_touch; l_fault = vfault 2 8 }
      );
      (fprog, flags_leg);
    ]
  in
  let sanitizer =
    if opts.race then Some (Ddsm.make_sanitizer machine ~nprocs:base.l_nprocs)
    else None
  in
  let direct = run_leg prog opts base ~sanitize:sanitizer in
  let jobs_out =
    Jobs.map ~jobs:opts.jobs
      (fun (prog, leg) -> run_leg prog opts leg ~sanitize:None)
      legs
  in
  let dup, v1, v2, vf =
    match jobs_out with
    | [ a; b; c; d ] -> (a, b, c, d)
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
  (* 3d. variant and flags legs agree with the base on values and prints,
     or fail as it does *)
  let agree ~kind leg =
    match (direct, leg) with
    | Ok b, Ok (v : engine_out) ->
        check_images ~kind b.e_image v.e_image;
        check_prints ~kind b.e_prints v.e_prints
    | Ok _, Error d when diag_is_budget d -> return Timeout
    | Ok _, Error d when Diag.is_internal d ->
        return
          (Diverged
             { kind = "engine-internal"; detail = short (Diag.to_string d) })
    | Ok _, Error d ->
        return
          (Diverged
             { kind; detail = "base ok vs " ^ short (Diag.to_string d) })
    | Error bd, Error d
      when Diag.code d = Diag.code bd || diag_is_budget d || diag_is_budget bd
      ->
        ()
    | Error bd, Error d ->
        return
          (Diverged { kind; detail = Diag.code bd ^ " vs " ^ Diag.code d })
    | Error bd, Ok _ ->
        return (Diverged { kind; detail = Diag.code bd ^ " vs ok" })
  in
  agree ~kind:"variant" v1;
  agree ~kind:"variant" v2;
  agree ~kind:"flags" vf;
  (* 3e. chaos leg: a lost wakeup may end the run in a deadlock or a
     watchdog stall, or not at all; a program that fails on its own may
     fail the same way first. Anything else is the engine's fault. *)
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
    | Ok _ -> ()
    | Error { Diag.reason = Diag.Deadlock | Diag.Watchdog_stall _; _ } -> ()
    | Error { Diag.reason = Diag.User _; _ } when verdict_base <> Pass -> ()
    | Error d ->
        return
          (Diverged
             {
               kind = "engine-internal";
               detail = "chaos leg: " ^ short (Diag.to_string d);
             })
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

module Sema = Ddsm_sema.Sema
module Darray = Ddsm_runtime.Darray
module Rt = Ddsm_runtime.Rt
module Heap = Ddsm_runtime.Heap
module Memsys = Ddsm_machine.Memsys
module Counters = Ddsm_machine.Counters
module Diag = Ddsm_check.Diag
open Ddsm_ir

type outcome = {
  cycles : int;
  prints : string list;
  counters : Counters.t;
  parks : int;
  direct_continues : int;
  forks : int;
}

(* ------------------------------------------------------------------ *)
(* Static storage elaboration *)

let elem_of_ty = function Types.Tint -> Darray.Int | Types.Treal -> Darray.Real

let elaborate prog ~rt =
  let declare env name (ai : Sema.array_info) =
    let qname = Compilec.qualified env name in
    let lowers, extents =
      match ai.Sema.ai_const_shape with
      | Some s -> s
      | None -> Eff.error "array %s: non-constant shape" qname
    in
    match Rt.find_array rt qname with
    | Some existing ->
        (* a common block member declared by several routines must agree *)
        if existing.Darray.extents <> extents || existing.Darray.lower <> lowers
        then
          Eff.error
            "common array %s declared with different shapes in different \
             routines"
            qname
    | None -> (
        let elem = elem_of_ty ai.Sema.ai_ty in
        match ai.Sema.ai_dist with
        | None ->
            ignore
              (Rt.declare_plain rt ~name:qname ~elem ~extents ~lower:lowers ())
        | Some d ->
            let kinds = Array.of_list d.Decl.dkinds in
            let onto = Option.map Array.of_list d.Decl.donto in
            if d.Decl.dreshape then
              ignore
                (Rt.declare_reshaped rt ~name:qname ~elem ~extents ~lower:lowers
                   ~kinds ?onto ())
            else
              ignore
                (Rt.declare_regular rt ~name:qname ~elem ~extents ~lower:lowers
                   ~kinds ?onto ()))
  in
  Prog.iter prog (fun _ env ->
      (* equivalenced arrays share their base's storage: nothing to
         allocate; Compilec binds them to it *)
      Hashtbl.fold
        (fun name sym acc ->
          match sym with
          | Sema.SArray ai
            when (not ai.Sema.ai_formal) && ai.Sema.ai_equiv_base = None ->
              (name, ai) :: acc
          | _ -> acc)
        env.Sema.syms []
      |> List.iter (fun (n, ai) -> declare env n ai))

(* ------------------------------------------------------------------ *)
(* Scheduler *)

(* the reason a run ends when an exception escapes compiled code *)
let reason_of_exn = function
  | Eff.Runtime_error m | Heap.Out_of_memory m -> Diag.User m
  | Invalid_argument m | Failure m -> Diag.Internal m
  | e -> Diag.Internal (Printexc.to_string e)

let rec view_of (t : Sched.task) =
  let st =
    match t.Sched.state with
    | _ when t.Sched.lost_wakeup -> Diag.Blocked_mem
    | Sched.Ready -> Diag.Ready
    | Sched.Waiting ->
        Diag.Waiting (t.Sched.pending + List.length t.Sched.held)
    | Sched.Held -> Diag.Held
    | Sched.Done -> Diag.Done
  in
  {
    Diag.tv_proc = t.Sched.proc;
    tv_clock = t.Sched.clock;
    tv_depth = t.Sched.depth;
    tv_state = st;
    tv_children =
      List.filter_map
        (fun (c : Sched.task) ->
          match c.Sched.state with Sched.Done -> None | _ -> Some (view_of c))
        (List.rev t.Sched.children);
  }

let serial_region = "(serial)"

let run prog ~rt ?(checks = true) ?(bounds = false)
    ?(max_cycles = max_int / 2) ?(audit = false) ?(stall_limit = 1_000_000)
    ?(observers = []) () =
  let prints = ref [] in
  let phase = ref "elaborate" in
  let mem = rt.Rt.mem in
  (* ---- observability -------------------------------------------------
     The subscribers share one event stream, delivered in list order and
     installed once, as the runtime's observer: the runtime and the
     scheduler deliver their events through [rt.observe]. One machine probe
     forwards every access as the same [Access] value, whose region the
     scheduler sets before each access. With no subscriber no event is
     built and the machine probe is left alone. *)
  let access = { Rt.region = serial_region; ev = Memsys.event mem } in
  let access_event = Rt.Access access in
  let observer =
    match observers with
    | [] -> None
    | first :: rest ->
        (* chained once here, so delivering an event allocates nothing *)
        Some
          (List.fold_left
             (fun deliver f ev ->
               deliver ev;
               f ev)
             first rest)
  in
  Option.iter
    (fun observe ->
      rt.Rt.observe <- Some observe;
      Memsys.set_probe mem (Some (fun _ -> observe access_event)))
    observer;
  let detach_observers () =
    if observer <> None then (
      Memsys.set_probe mem None;
      rt.Rt.observe <- None)
  in
  let s = Sched.create ~rt ~max_cycles ~access_ev:access in
  let master =
    Sched.task ~proc:0 ~clock:0 ~depth:0 ~region:serial_region ~parent:None
      ~frame:Frame.empty ~resume:ignore
  in
  (* not started: a failure before the run reports no blocked task *)
  master.Sched.state <- Sched.Done;
  (* Full-context diagnosis: reason + where every simulated task stands.
     Built from whatever state exists when the failure is observed. *)
  let diagnose reason =
    let clocks = Hashtbl.create 16 in
    let rec clock_walk (t : Sched.task) =
      let p = t.Sched.proc and c = t.Sched.clock in
      (match Hashtbl.find_opt clocks p with
      | Some c' when c' >= c -> ()
      | _ -> Hashtbl.replace clocks p c);
      List.iter clock_walk t.Sched.children
    in
    clock_walk master;
    let blocked =
      match master.Sched.state with
      | Sched.Done -> []
      | _ -> (
          match view_of master with
          | { Diag.tv_state = Diag.Done; _ } -> []
          | v -> [ v ])
    in
    {
      Diag.phase = !phase;
      reason;
      proc_clocks =
        List.sort compare (Hashtbl.fold (fun p c acc -> (p, c) :: acc) clocks []);
      blocked;
      counters =
        ("redist_retries", rt.Rt.redist_retries)
        :: ("redist_fallbacks", rt.Rt.redist_fallbacks)
        :: Counters.to_assoc (Memsys.total_counters mem);
      violations = [];
    }
  in
  Fun.protect ~finally:detach_observers @@ fun () ->
  try
    elaborate prog ~rt;
    (* every static array is declared now; later storage (a reshaped
       relayout, gather scratch) is announced by the runtime as it is
       allocated *)
    Option.iter
      (fun observe ->
        Hashtbl.iter
          (fun name d ->
            observe (Rt.Alloc { name; word_ranges = Darray.word_ranges d }))
          rt.Rt.arrays)
      observer;
    phase := "compile";
    let g =
      Compilec.create prog ~rt ~sched:s ~checks ~bounds
        ~print:(fun s -> prints := s :: !prints)
    in
    Compilec.compile_all g;
    phase := "execute";
    master.Sched.resume <- Compilec.run_main g;
    master.Sched.state <- Sched.Ready;
    Sched.push s master;
    Sched.mark s Rt.Run_begin ~proc:0 ~now:0;
    (* Watchdog: consecutive scheduler steps without the minimum queued
       clock advancing. A healthy run advances some clock on every resume
       (every memory access has positive latency); a stall this long means
       tasks are re-enqueuing at a frozen clock. *)
    let last_key = ref min_int and stalled = ref 0 in
    let watchdog key (t : Sched.task) =
      if key > !last_key then begin
        last_key := key;
        stalled := 0
      end
      else begin
        incr stalled;
        if !stalled > stall_limit then
          Sched.fail s t (Diag.Watchdog_stall { steps = !stalled })
      end
    in
    (* a popped task runs (its state reads [Done] meanwhile) until it
       parks, forks, finishes or fails *)
    let rec loop () =
      match (s.Sched.failure, Runq.min_key s.Sched.runq) with
      | Some _, _ -> ()
      | None, key when key = max_int -> ()
      | None, key -> (
          let t = Runq.pop_value s.Sched.runq in
          watchdog key t;
          match s.Sched.failure with
          | Some _ -> ()
          | None ->
              (match t.Sched.state with
              | Sched.Ready -> (
                  t.Sched.state <- Sched.Done;
                  try t.Sched.resume t with e -> Sched.fail s t (reason_of_exn e))
              | Sched.Waiting | Sched.Held | Sched.Done -> ());
              loop ())
    in
    loop ();
    match s.Sched.failure with
    | Some reason -> Error (diagnose reason)
    | None ->
        if master.Sched.state <> Sched.Done then Error (diagnose Diag.Deadlock)
        else begin
          let post_audit =
            if audit then Rt.audit rt else []
          in
          match post_audit with
          | _ :: _ as violations ->
              Error
                { (diagnose Diag.Audit_failure) with phase = "audit"; violations }
          | [] ->
              Sched.mark s Rt.Run_end ~proc:0 ~now:master.Sched.clock;
              Ok
                {
                  cycles = master.Sched.clock;
                  prints = List.rev !prints;
                  counters = Memsys.total_counters mem;
                  parks = s.Sched.parks;
                  direct_continues = s.Sched.direct_continues;
                  forks = s.Sched.forks;
                }
        end
  with
  (* elaborate/compile run outside the scheduler, so an Invalid_argument or
     Failure raised there (e.g. by Grid.assign on a malformed onto clause
     that slipped past sema) would otherwise escape as an uncaught
     exception instead of a structured diagnosis *)
  | (Eff.Runtime_error _ | Heap.Out_of_memory _ | Invalid_argument _ | Failure _)
    as e ->
      Error (Diag.bare ~phase:!phase (reason_of_exn e))

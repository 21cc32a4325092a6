module Sema = Ddsm_sema.Sema
module Darray = Ddsm_runtime.Darray
module Rt = Ddsm_runtime.Rt
module Heap = Ddsm_runtime.Heap
module Memsys = Ddsm_machine.Memsys
module Counters = Ddsm_machine.Counters
module Diag = Ddsm_check.Diag
module Fault = Ddsm_check.Fault
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
    match Rt.find_array rt qname with
    | Some existing ->
        (* a common block member declared by several routines must agree *)
        let lowers, extents =
          match ai.Sema.ai_const_shape with
          | Some s -> s
          | None -> Eff.error "array %s: non-constant shape" qname
        in
        if existing.Darray.extents <> extents || existing.Darray.lower <> lowers
        then
          Eff.error
            "common array %s declared with different shapes in different \
             routines"
            qname
    | None -> (
        let lowers, extents =
          match ai.Sema.ai_const_shape with
          | Some s -> s
          | None -> Eff.error "array %s: non-constant shape" qname
        in
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
  Prog.iter prog (fun _ pr ->
      let env = pr.Prog.env in
      (* equivalenced arrays share their base's storage: nothing to
         allocate; binding happens in static_abind *)
      Hashtbl.fold
        (fun name sym acc ->
          match sym with
          | Sema.SArray ai
            when (not ai.Sema.ai_formal) && ai.Sema.ai_equiv_base = None ->
              (name, ai) :: acc
          | _ -> acc)
        env.Sema.syms []
      |> List.iter (fun (n, ai) -> declare env n ai))

(* static binding for a non-formal array of a routine *)
let static_abind prog rt ~routine ~array =
  match Prog.find prog routine with
  | None -> None
  | Some pr -> (
      let env = pr.Prog.env in
      match Sema.find_array env array with
      | None | Some { Sema.ai_formal = true; _ } -> None
      | Some ai -> (
          let target =
            match ai.Sema.ai_equiv_base with Some b -> b | None -> array
          in
          let qname = Compilec.qualified env target in
          match Rt.find_array rt qname with
          | None -> None
          | Some d ->
              let lowers, extents =
                match ai.Sema.ai_const_shape with
                | Some s -> s
                | None -> (d.Darray.lower, d.Darray.extents)
              in
              let strides = Frame.column_strides extents in
              let base =
                match d.Darray.storage with
                | Darray.Normal { base } -> base
                | Darray.Reshaped { meta_base; _ } -> meta_base
              in
              Some
                {
                  Frame.ab_darr =
                    (if ai.Sema.ai_equiv_base = None then Some d else None);
                  ab_base = base;
                  ab_lowers = lowers;
                  ab_strides = strides;
                  ab_extents = extents;
                  ab_ty = ai.Sema.ai_ty;
                }))

(* ------------------------------------------------------------------ *)
(* Scheduler *)

type task = {
  tws : Eff.ws;
  region : string;  (** parallel-region label for cycle attribution *)
  mutable state : tstate;
  parent : task option;
  mutable children : task list;
  mutable pending : int;
  mutable maxchild : int;
  mutable forked_region : string option;
      (** label of the region this task is currently waiting on *)
  mutable lost_wakeup : bool;
  mutable wait_k : (unit, unit) Effect.Deep.continuation option;
}

and tstate = Start of (unit -> unit) | Ready | Waiting | Done

(* raised inside the scheduler loop when the watchdog trips *)
exception Stalled of int

let rec view_of t =
  let st =
    match t.state with
    | _ when t.lost_wakeup -> Diag.Blocked_mem
    | Start _ | Ready -> Diag.Ready
    | Waiting -> Diag.Waiting t.pending
    | Done -> Diag.Done
  in
  {
    Diag.tv_proc = t.tws.Eff.proc;
    tv_clock = t.tws.Eff.clock;
    tv_depth = t.tws.Eff.depth;
    tv_state = st;
    tv_children =
      List.filter_map
        (fun c -> match c.state with Done -> None | _ -> Some (view_of c))
        (List.rev t.children);
  }

let serial_region = "(serial)"

let mk_task ~tws ~region ~state ~parent =
  {
    tws;
    region;
    state;
    parent;
    children = [];
    pending = 0;
    maxchild = 0;
    forked_region = None;
    lost_wakeup = false;
    wait_k = None;
  }

let run prog ~rt ?(checks = true) ?(bounds = false)
    ?(max_cycles = max_int / 2) ?(audit = false) ?(stall_limit = 1_000_000)
    ?(observers = []) () =
  let prints = ref [] in
  let phase = ref "elaborate" in
  let mem = rt.Rt.mem in
  let master_ws = { Eff.proc = 0; clock = 0; depth = 0 } in
  let master =
    mk_task ~tws:master_ws ~region:serial_region ~state:Done ~parent:None
  in
  (* ---- observability -------------------------------------------------
     The subscribers share one event stream, delivered in list order. One
     machine probe forwards every access as the same [Access] value, whose
     region the Mem handler sets before each access. With no subscriber no
     event is built and the machine probe is left alone. *)
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
  let mark mark ~proc ~now =
    match observer with
    | None -> ()
    | Some observe -> observe (Rt.Mark { mark; proc; now })
  in
  let detach_observers () =
    if observer <> None then (
      Memsys.set_probe mem None;
      rt.Rt.observe <- None)
  in
  (* Full-context diagnosis: reason + where every simulated task stands.
     Built from whatever state exists when the failure is observed. *)
  let diagnose reason =
    let clocks = Hashtbl.create 16 in
    let rec clock_walk t =
      let p = t.tws.Eff.proc and c = t.tws.Eff.clock in
      (match Hashtbl.find_opt clocks p with
      | Some c' when c' >= c -> ()
      | _ -> Hashtbl.replace clocks p c);
      List.iter clock_walk t.children
    in
    clock_walk master;
    let blocked =
      match master.state with
      | Done -> []
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
  let classify = function
    | Eff.Runtime_error m -> Diag.User m
    | Eff.Cycle_limit limit -> Diag.Cycle_budget { limit }
    | Heap.Out_of_memory m -> Diag.User m
    | Stalled steps -> Diag.Watchdog_stall { steps }
    | Invalid_argument m | Failure m -> Diag.Internal m
    | e -> Diag.Internal (Printexc.to_string e)
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
      Compilec.create prog ~rt ~checks ~bounds
        ~static_abind:(fun ~routine ~array -> static_abind prog rt ~routine ~array)
        ~print:(fun s -> prints := s :: !prints)
    in
    Compilec.set_cycle_limit g max_cycles;
    Compilec.compile_all g;
    phase := "execute";
    let fault = Memsys.fault mem in
    let wakeups = ref 0 in
    let parks = ref 0 and direct_continues = ref 0 and forks = ref 0 in
    let runq = Runq.create () in
    let failure : exn option ref = ref None in
    (* a task's failure; the cycle budget is checked after each access and
       by loops inside the task, and either way is marked *)
    let fail (ws : Eff.ws) e =
      (match e with
      | Eff.Cycle_limit _ ->
          mark Rt.Cycle_budget ~proc:ws.Eff.proc ~now:ws.Eff.clock
      | _ -> ());
      failure := Some e
    in
    let push t = Runq.push runq ~key:t.tws.Eff.clock t in
    let rec finish t =
      t.state <- Done;
      match t.parent with
      | None -> ()
      | Some p ->
          p.pending <- p.pending - 1;
          p.maxchild <- max p.maxchild t.tws.Eff.clock;
          if p.pending = 0 then begin
            p.children <- [];
            p.tws.Eff.clock <- p.maxchild;
            (match (p.forked_region, observer) with
            | Some region, Some observe ->
                let proc = p.tws.Eff.proc in
                observe (Rt.Join { region; proc; now = p.maxchild })
            | _ -> ());
            p.forked_region <- None;
            p.state <- Ready;
            push p
          end

    and handler t =
      (* The Mem case runs once per simulated memory access. Its effect
         arguments are stashed in per-task cells and the same closure (and
         [Some] box) is handed back every time, so dispatching the hottest
         effect allocates nothing. *)
      let m_ws = ref t.tws and m_addr = ref 0 and m_write = ref false in
      let mem_k (k : (unit, unit) Effect.Deep.continuation) =
        let ws = !m_ws and waddr = !m_addr and write = !m_write in
        access.Rt.region <- t.region;
        let lat =
          Memsys.access mem ~proc:ws.Eff.proc ~addr:(Heap.byte_of_word waddr)
            ~write ~now:ws.Eff.clock
        in
        ws.Eff.clock <- ws.Eff.clock + lat;
        if ws.Eff.clock > max_cycles then fail ws (Eff.Cycle_limit max_cycles)
        else begin
          incr wakeups;
          let w = !wakeups in
          (* chaos fault: the completion wakeup is dropped and the task
             stays parked forever — the watchdog's deadlock report must
             name it *)
          if Fault.wakeup_lost fault ~wakeup:w then begin
            t.state <- Ready;
            t.wait_k <- Some k;
            t.lost_wakeup <- true;
            mark Rt.Wakeup_lost ~proc:ws.Eff.proc ~now:ws.Eff.clock
          end
          else if lat > 0 && ws.Eff.clock < Runq.min_key runq then begin
            (* fast continue: the task's new clock is strictly ahead of
               everything queued, so a push would pop right back (FIFO
               tie-breaking never applies to a strictly smaller key).
               Resume it directly and skip the park/push/pop round-trip.
               [lat > 0] keeps frozen-clock livelocks on the run-queue
               path where the watchdog can see them. *)
            incr direct_continues;
            Effect.Deep.continue k ()
          end
          else begin
            incr parks;
            t.state <- Ready;
            t.wait_k <- Some k;
            push t
          end
        end
      in
      let mem_case = Some mem_k in
      {
        Effect.Deep.retc = (fun () -> finish t);
        exnc = fail t.tws;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Eff.Mem (ws, waddr, write) ->
                m_ws := ws;
                m_addr := waddr;
                m_write := write;
                (mem_case
                  : ((a, unit) Effect.Deep.continuation -> unit) option)
            | Eff.Fork (ws, body, n, region) ->
                Some
                  (fun (k : (a, unit) Effect.Deep.continuation) ->
                    incr forks;
                    t.state <- Waiting;
                    t.wait_k <- Some k;
                    t.pending <- n;
                    t.maxchild <- ws.Eff.clock;
                    t.children <- [];
                    t.forked_region <- Some region;
                    (match observer with
                    | None -> ()
                    | Some observe ->
                        let proc = ws.Eff.proc and now = ws.Eff.clock in
                        observe (Rt.Fork { region; nprocs = n; proc; now }));
                    for p = n - 1 downto 0 do
                      let cws =
                        { Eff.proc = p; clock = ws.Eff.clock; depth = ws.Eff.depth + 1 }
                      in
                      let child =
                        mk_task ~tws:cws ~region
                          ~state:(Start (fun () -> body cws p))
                          ~parent:(Some t)
                      in
                      t.children <- child :: t.children;
                      push child
                    done)
            | _ -> None);
      }
    in
    master.state <- Start (fun () -> Compilec.run_main g master_ws);
    push master;
    mark Rt.Run_begin ~proc:0 ~now:0;
    (* Watchdog: consecutive scheduler steps without the minimum queued
       clock advancing. A healthy run advances some clock on every resume
       (every memory access has positive latency); a stall this long means
       tasks are re-enqueuing at a frozen clock. *)
    let last_key = ref min_int and stalled = ref 0 in
    let watchdog key (t : task) =
      if key > !last_key then begin
        last_key := key;
        stalled := 0
      end
      else begin
        incr stalled;
        if !stalled > stall_limit then begin
          mark Rt.Watchdog_stall ~proc:t.tws.Eff.proc ~now:t.tws.Eff.clock;
          failure := Some (Stalled !stalled)
        end
      end
    in
    let rec loop () =
      if !failure <> None then ()
      else
        match Runq.min_key runq with
        | key when key = max_int -> ()
        | key ->
            let t = Runq.pop_value runq in
            watchdog key t;
            if !failure <> None then ()
            else begin
              (match t.state with
              | Start f ->
                  t.state <- Done;
                  Effect.Deep.match_with f () (handler t)
              | Ready -> (
                  match t.wait_k with
                  | Some k ->
                      t.state <- Done;
                      t.wait_k <- None;
                      Effect.Deep.continue k ()
                  | None -> ())
              | Waiting | Done -> ());
              loop ()
            end
    in
    loop ();
    match !failure with
    | Some e -> Error (diagnose (classify e))
    | None ->
        if master.state <> Done then Error (diagnose Diag.Deadlock)
        else begin
          let post_audit =
            if audit then Rt.audit rt else []
          in
          match post_audit with
          | _ :: _ as violations ->
              Error
                { (diagnose Diag.Audit_failure) with phase = "audit"; violations }
          | [] ->
              mark Rt.Run_end ~proc:0 ~now:master_ws.Eff.clock;
              Ok
                {
                  cycles = master_ws.Eff.clock;
                  prints = List.rev !prints;
                  counters = Memsys.total_counters mem;
                  parks = !parks;
                  direct_continues = !direct_continues;
                  forks = !forks;
                }
        end
  with
  | Eff.Runtime_error m -> Error (Diag.user ~phase:!phase m)
  | Eff.Cycle_limit limit ->
      Error (diagnose (Diag.Cycle_budget { limit }))
  | Heap.Out_of_memory m -> Error (Diag.user ~phase:!phase m)
  (* elaborate/compile run outside the scheduler, so an Invalid_argument or
     Failure raised there (e.g. by Grid.assign on a malformed onto clause
     that slipped past sema) would otherwise escape as an uncaught
     exception instead of a structured diagnosis *)
  | Invalid_argument m | Failure m -> Error (Diag.internal ~phase:!phase m)

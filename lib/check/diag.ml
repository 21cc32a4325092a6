type task_state = Ready | Waiting of int | Held | Blocked_mem | Done

type task_view = {
  tv_proc : int;
  tv_clock : int;
  tv_depth : int;
  tv_state : task_state;
  tv_children : task_view list;
}

type reason =
  | User of string
  | Internal of string
  | Deadlock
  | Cycle_budget of { limit : int }
  | Watchdog_stall of { steps : int }
  | Audit_failure

type t = {
  phase : string;
  reason : reason;
  proc_clocks : (int * int) list;
  blocked : task_view list;
  counters : (string * int) list;
  violations : Audit.violation list;
}

let bare ?(phase = "execute") reason =
  { phase; reason; proc_clocks = []; blocked = []; counters = []; violations = [] }

let user ?phase m = bare ?phase (User m)
let internal ?phase m = bare ?phase (Internal m)

let is_internal t =
  match t.reason with Internal _ | Audit_failure -> true | _ -> false

let code t =
  match t.reason with
  | User _ -> "user"
  | Internal _ -> "internal"
  | Deadlock -> "deadlock"
  | Cycle_budget _ -> "cycle-budget"
  | Watchdog_stall _ -> "watchdog-stall"
  | Audit_failure -> "audit"

let headline t =
  match t.reason with
  | User m -> m
  | Internal m -> "internal invariant violation: " ^ m
  | Deadlock -> "deadlock: program did not run to completion"
  | Cycle_budget { limit } ->
      Printf.sprintf "simulated cycle limit exceeded (budget %d)" limit
  | Watchdog_stall { steps } ->
      Printf.sprintf
        "watchdog: scheduler made no progress in %d steps (livelock?)" steps
  | Audit_failure ->
      Printf.sprintf "invariant audit failed (%d violation(s))"
        (List.length t.violations)

let pp_state ppf = function
  | Ready -> Format.pp_print_string ppf "ready"
  | Waiting n -> Format.fprintf ppf "waiting(%d children)" n
  | Held -> Format.pp_print_string ppf "held at a barrier"
  | Blocked_mem -> Format.pp_print_string ppf "blocked on memory wakeup"
  | Done -> Format.pp_print_string ppf "done"

let rec pp_task ppf v =
  Format.fprintf ppf "@[<v 2>proc %d  clock %d  depth %d  %a%a@]" v.tv_proc
    v.tv_clock v.tv_depth pp_state v.tv_state
    (fun ppf -> function
      | [] -> ()
      | cs -> Format.fprintf ppf "@ %a" (Format.pp_print_list pp_task) cs)
    v.tv_children

let pp ppf t =
  Format.fprintf ppf "@[<v>%s" (headline t);
  if
    t.proc_clocks <> [] || t.blocked <> [] || t.counters <> []
    || t.violations <> []
  then begin
    Format.fprintf ppf "@ phase: %s" t.phase;
    if t.proc_clocks <> [] then begin
      Format.fprintf ppf "@ per-proc clocks:";
      List.iter (fun (p, c) -> Format.fprintf ppf " p%d=%d" p c) t.proc_clocks
    end;
    if t.blocked <> [] then
      Format.fprintf ppf "@ @[<v 2>blocked tasks:@ %a@]"
        (Format.pp_print_list pp_task) t.blocked;
    if t.violations <> [] then
      Format.fprintf ppf "@ %a" Audit.pp_list t.violations;
    (match List.filter (fun (_, n) -> n <> 0) t.counters with
    | [] -> ()
    | cs ->
        Format.fprintf ppf "@ counters:";
        List.iter (fun (k, n) -> Format.fprintf ppf " %s=%d" k n) cs)
  end;
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

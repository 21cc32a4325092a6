module Memsys = Ddsm_machine.Memsys
module Heap = Ddsm_runtime.Heap
module Rt = Ddsm_runtime.Rt
module Fault = Ddsm_check.Fault
module Diag = Ddsm_check.Diag
module Argcheck = Ddsm_runtime.Argcheck

type state = Ready | Waiting | Held | Done

type task = {
  proc : int;
  mutable clock : int;
  depth : int;
  region : string;
  parent : task option;
  mutable frame : Frame.t;
  mutable resume : task -> unit;
  mutable addr : int;
  mutable args : Frame.arg array;
  mutable regs : int list;
  mutable calls : ret list;
  mutable state : state;
  mutable children : task list;
  mutable pending : int;
  mutable held : task list;
  mutable maxchild : int;
  mutable forked_region : string option;
  mutable lost_wakeup : bool;
}

and ret = { caller : Frame.t; k : task -> unit; registered : int list }

type t = {
  rt : Rt.t;
  mem : Memsys.t;
  runq : task Runq.t;
  max_cycles : int;
  access_ev : Rt.access;
  loses_wakeup : bool; (* the fault plan drops a wakeup: count them *)
  mutable parks : int;
  mutable direct_continues : int;
  mutable forks : int;
  mutable failure : Diag.reason option;
}

let create ~rt ~max_cycles ~access_ev =
  let mem = rt.Rt.mem in
  {
    rt;
    mem;
    runq = Runq.create ();
    max_cycles;
    access_ev;
    loses_wakeup = Fault.schedules (Memsys.faults mem) Fault.Wakeup;
    parks = 0;
    direct_continues = 0;
    forks = 0;
    failure = None;
  }

let task ~proc ~clock ~depth ~region ~parent ~frame ~resume =
  {
    proc;
    clock;
    depth;
    region;
    parent;
    frame;
    resume;
    addr = 0;
    args = [||];
    regs = [];
    calls = [];
    state = Ready;
    children = [];
    pending = 0;
    held = [];
    maxchild = 0;
    forked_region = None;
    lost_wakeup = false;
  }

let push s t = Runq.push s.runq ~key:t.clock t

let mark s mark ~proc ~now =
  match s.rt.Rt.observe with
  | None -> ()
  | Some observe -> observe (Rt.Mark { mark; proc; now })

(* the run's failure, recorded where it happens: the failed task's run
   ends, so the argument checks of every call it was inside are
   unregistered, innermost first; a spent budget and a tripped watchdog
   are also marked *)
let fail s t reason =
  List.iter
    (fun r ->
      List.iter
        (fun addr -> ignore (Argcheck.unregister s.rt.Rt.argcheck ~addr))
        r.registered)
    t.calls;
  (match reason with
  | Diag.Cycle_budget _ -> mark s Rt.Cycle_budget ~proc:t.proc ~now:t.clock
  | Diag.Watchdog_stall _ -> mark s Rt.Watchdog_stall ~proc:t.proc ~now:t.clock
  | _ -> ());
  s.failure <- Some reason

let access s t waddr write k =
  t.addr <- waddr;
  if s.access_ev.Rt.region != t.region then s.access_ev.Rt.region <- t.region;
  let lat =
    Memsys.access s.mem ~proc:t.proc ~addr:(Heap.byte_of_word waddr) ~write
      ~now:t.clock
  in
  t.clock <- t.clock + lat;
  if t.clock > s.max_cycles then
    fail s t (Diag.Cycle_budget { limit = s.max_cycles })
  else begin
    (* chaos fault: the completion wakeup is dropped and the task stays
       parked forever — the watchdog's deadlock report must name it.
       Wakeups are counted only under a plan that drops one. *)
    if s.loses_wakeup && Fault.fails (Memsys.faults s.mem) Fault.Wakeup then begin
      t.state <- Ready;
      t.resume <- k;
      t.lost_wakeup <- true;
      mark s Rt.Wakeup_lost ~proc:t.proc ~now:t.clock
    end
    else if lat > 0 && t.clock < Runq.min_key s.runq then begin
      (* direct continue: the task's new clock is strictly ahead of
         everything queued, so a push would pop right back (FIFO
         tie-breaking never applies to a strictly smaller key). [lat > 0]
         keeps frozen-clock livelocks on the run-queue path where the
         watchdog can see them. *)
      s.direct_continues <- s.direct_continues + 1;
      k t
    end
    else begin
      s.parks <- s.parks + 1;
      t.state <- Ready;
      t.resume <- k;
      push s t
    end
  end

let fork s t ~n ~region ~myp ~np ~body ~k =
  s.forks <- s.forks + 1;
  t.state <- Waiting;
  t.resume <- k;
  t.pending <- n;
  t.maxchild <- t.clock;
  t.children <- [];
  t.forked_region <- Some region;
  (match s.rt.Rt.observe with
  | None -> ()
  | Some observe ->
      observe (Rt.Fork { region; nprocs = n; proc = t.proc; now = t.clock }));
  let parent = Some t in
  for p = n - 1 downto 0 do
    let frame = Frame.copy_scalars t.frame in
    frame.Frame.ints.(myp) <- p;
    frame.Frame.ints.(np) <- n;
    let child =
      task ~proc:p ~clock:t.clock ~depth:(t.depth + 1) ~region ~parent ~frame
        ~resume:body
    in
    t.children <- child :: t.children;
    push s child
  done

(* Every unfinished child of [p] is held at its barrier: they resume
   together at the latest of their clocks and [now], the clock of the task
   that completed the release. That task's clock is at or after the last
   popped key, so the pushes keep the run queue's keys monotone. *)
let release s p ~now =
  let held = List.rev p.held in
  p.held <- [];
  let now = List.fold_left (fun m c -> max m c.clock) now held in
  (match s.rt.Rt.observe with
  | None -> ()
  | Some observe ->
      observe (Rt.Barrier { procs = List.map (fun c -> c.proc) held; now }));
  List.iter
    (fun c ->
      c.clock <- now;
      c.state <- Ready;
      p.pending <- p.pending + 1;
      push s c)
    held

let barrier s t k =
  match t.parent with
  | None -> k t
  | Some p ->
      (* chaos fault: the arrival is dropped, so this worker runs on and
         its accesses on either side stay unordered with its siblings' *)
      if Fault.fails (Memsys.faults s.mem) Fault.Barrier_arrival then k t
      else begin
        t.state <- Held;
        t.resume <- k;
        p.held <- t :: p.held;
        p.pending <- p.pending - 1;
        if p.pending = 0 then release s p ~now:t.clock
      end

let finish s t =
  t.state <- Done;
  match t.parent with
  | None -> ()
  | Some p ->
      p.pending <- p.pending - 1;
      p.maxchild <- max p.maxchild t.clock;
      if p.pending > 0 then ()
      else if p.held <> [] then release s p ~now:t.clock
      else begin
        p.children <- [];
        p.clock <- p.maxchild;
        (match (p.forked_region, s.rt.Rt.observe) with
        | Some region, Some observe ->
            observe (Rt.Join { region; proc = p.proc; now = p.maxchild })
        | _ -> ());
        p.forked_region <- None;
        p.state <- Ready;
        push s p
      end

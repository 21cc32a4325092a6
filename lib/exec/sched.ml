module Memsys = Ddsm_machine.Memsys
module Heap = Ddsm_runtime.Heap
module Rt = Ddsm_runtime.Rt
module Fault = Ddsm_check.Fault

type state = Ready | Waiting | Done

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
  mutable maxchild : int;
  mutable forked_region : string option;
  mutable lost_wakeup : bool;
}

and ret = { caller : Frame.t; k : task -> unit; registered : int list }

type t = {
  mem : Memsys.t;
  runq : task Runq.t;
  max_cycles : int;
  fault : Fault.t;
  access_ev : Rt.access;
  observe : (Rt.event -> unit) option;
  mutable wakeups : int;
  mutable parks : int;
  mutable direct_continues : int;
  mutable forks : int;
  mutable failure : exn option;
}

let create ~mem ~max_cycles ~access_ev ~observe =
  {
    mem;
    runq = Runq.create ();
    max_cycles;
    fault = Memsys.fault mem;
    access_ev;
    observe;
    wakeups = 0;
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
    maxchild = 0;
    forked_region = None;
    lost_wakeup = false;
  }

let push s t = Runq.push s.runq ~key:t.clock t

let mark s mark ~proc ~now =
  match s.observe with
  | None -> ()
  | Some observe -> observe (Rt.Mark { mark; proc; now })

(* a task's failure; the cycle budget is checked after each access and by
   loops inside the task, and either way is marked *)
let fail s t e =
  (match e with
  | Eff.Cycle_limit _ -> mark s Rt.Cycle_budget ~proc:t.proc ~now:t.clock
  | _ -> ());
  s.failure <- Some e

let access s t waddr write k =
  t.addr <- waddr;
  if s.access_ev.Rt.region != t.region then s.access_ev.Rt.region <- t.region;
  let lat =
    Memsys.access s.mem ~proc:t.proc ~addr:(Heap.byte_of_word waddr) ~write
      ~now:t.clock
  in
  t.clock <- t.clock + lat;
  if t.clock > s.max_cycles then fail s t (Eff.Cycle_limit s.max_cycles)
  else begin
    s.wakeups <- s.wakeups + 1;
    (* chaos fault: the completion wakeup is dropped and the task stays
       parked forever — the watchdog's deadlock report must name it *)
    if Fault.wakeup_lost s.fault ~wakeup:s.wakeups then begin
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
  (match s.observe with
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

let finish s t =
  t.state <- Done;
  match t.parent with
  | None -> ()
  | Some p ->
      p.pending <- p.pending - 1;
      p.maxchild <- max p.maxchild t.clock;
      if p.pending = 0 then begin
        p.children <- [];
        p.clock <- p.maxchild;
        (match (p.forked_region, s.observe) with
        | Some region, Some observe ->
            observe (Rt.Join { region; proc = p.proc; now = p.maxchild })
        | _ -> ());
        p.forked_region <- None;
        p.state <- Ready;
        push s p
      end

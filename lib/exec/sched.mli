(** Simulated tasks and the scheduler operations compiled code calls.

    Compiled code is continuation-passing: every statement ends by calling
    its successor, a [task -> unit] that exists from compile time. A task
    is one simulated processor's thread of control. When it reaches a
    memory access it calls {!access}, which commits the access to the
    memory system and then either calls the continuation at once or
    stores it as the task's resume point and puts the task on the run
    queue. The engine's scheduler loop pops the task with the smallest
    clock and resumes it with a plain call of [resume]. *)

type state =
  | Ready  (** queued, or parked on a lost wakeup *)
  | Waiting  (** joining its children *)
  | Held  (** held at a barrier until its siblings arrive *)
  | Done  (** finished, or running right now *)

type task = {
  proc : int;  (** simulated processor *)
  mutable clock : int;  (** local cycle count *)
  depth : int;  (** nesting depth of parallel regions (0 = serial) *)
  region : string;  (** parallel-region label for cycle attribution *)
  parent : task option;
  mutable frame : Frame.t;  (** the running routine's frame *)
  mutable resume : task -> unit;  (** where the task continues when run *)
  mutable addr : int;  (** word address of the task's last access *)
  mutable args : Frame.arg array;  (** actuals of the call being made *)
  mutable regs : int list;
      (** argument-check registrations of the call being made, newest
          first *)
  mutable calls : ret list;  (** return points, innermost first *)
  mutable state : state;
  mutable children : task list;
  mutable pending : int;  (** children neither finished nor held *)
  mutable held : task list;
      (** children held at a barrier, latest arrival first *)
  mutable maxchild : int;
  mutable forked_region : string option;
      (** label of the region this task is waiting on *)
  mutable lost_wakeup : bool;
}

and ret = {
  caller : Frame.t;
  k : task -> unit;  (** the call's successor *)
  registered : int list;  (** to unregister on return, in this order *)
}

type t = {
  rt : Ddsm_runtime.Rt.t;
      (** its [observe] field is the run's one observer; the scheduler
          delivers fork, join, barrier and mark events through it *)
  mem : Ddsm_machine.Memsys.t;  (** [rt]'s machine *)
  runq : task Runq.t;
  max_cycles : int;
      (** the run's cycle budget, checked after each access and, bound at
          link time, by compiled loops once per iteration *)
  access_ev : Ddsm_runtime.Rt.access;
      (** the observers' access event; its region is set before every
          access *)
  loses_wakeup : bool;
      (** the fault plan drops a wakeup, so every access counts one
          ({!Ddsm_check.Fault.schedules}); otherwise none is counted *)
  mutable parks : int;
  mutable direct_continues : int;
  mutable forks : int;
  mutable failure : Ddsm_check.Diag.reason option;
      (** set once, by {!fail}; the scheduler loop stops *)
}

val create :
  rt:Ddsm_runtime.Rt.t ->
  max_cycles:int ->
  access_ev:Ddsm_runtime.Rt.access ->
  t

val task :
  proc:int ->
  clock:int ->
  depth:int ->
  region:string ->
  parent:task option ->
  frame:Frame.t ->
  resume:(task -> unit) ->
  task
(** A [Ready] task that starts at [resume]. *)

val push : t -> task -> unit
(** Queue the task at its clock. *)

val mark : t -> Ddsm_runtime.Rt.mark -> proc:int -> now:int -> unit

val fail : t -> task -> Ddsm_check.Diag.reason -> unit
(** Record the run's failure where it happens. The task's run ends, so the
    argument checks of every call it was inside are unregistered; a
    [Cycle_budget] or [Watchdog_stall] reason is also marked. The caller
    returns without continuing the task. *)

val access : t -> task -> int -> bool -> (task -> unit) -> unit
(** [access s t waddr write k]: one-word access at [waddr]. Stores [waddr]
    in [t.addr], charges the memory system's latency to [t.clock], then
    continues at [k] directly when the new clock is strictly below every
    queued key (and the latency positive), or parks [t] with resume point
    [k]. Past the cycle budget it fails the run instead. Otherwise the
    access counts one [Wakeup] of the machine's fault plan, and a lost
    wakeup leaves the task parked and never queued. The heap read
    or write belongs to [k], after the commit. *)

val fork :
  t ->
  task ->
  n:int ->
  region:string ->
  myp:int ->
  np:int ->
  body:(task -> unit) ->
  k:(task -> unit) ->
  unit
(** Start [n] children at the task's clock, each on a private copy of its
    frame's scalars with slot [myp] set to its index and slot [np] to [n],
    resuming at [body]. The task waits for them; [k] is its resume point
    after the join. Children are queued from [n - 1] down to [0]. *)

val barrier : t -> task -> (task -> unit) -> unit
(** [barrier s t k]: [t] reached [c$barrier] and continues at [k]. A
    forked worker is held; the barrier releases when every unfinished
    worker of its fork is held (a finished worker counts as arrived), and
    the released workers resume together at the latest clock among them
    and the task that completed the release, announced as one
    [Rt.Barrier] event. A serial task continues at once. Each held arrival
    counts one [Barrier_arrival] of the fault plan; the one the plan drops
    continues at once and is not among the released workers. *)

val finish : t -> task -> unit
(** The task is done. The last unfinished child of a fork releases its
    held siblings, or, when none is held, queues its parent at the
    children's maximum clock. *)

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
  mutable pending : int;  (** children still running *)
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
  mem : Ddsm_machine.Memsys.t;
  runq : task Runq.t;
  max_cycles : int;
  fault : Ddsm_check.Fault.t;
  access_ev : Ddsm_runtime.Rt.access;
      (** the observers' access event; its region is set before every
          access *)
  observe : (Ddsm_runtime.Rt.event -> unit) option;
  mutable wakeups : int;
  mutable parks : int;
  mutable direct_continues : int;
  mutable forks : int;
  mutable failure : exn option;  (** set once; the scheduler loop stops *)
}

val create :
  mem:Ddsm_machine.Memsys.t ->
  max_cycles:int ->
  access_ev:Ddsm_runtime.Rt.access ->
  observe:(Ddsm_runtime.Rt.event -> unit) option ->
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

val fail : t -> task -> exn -> unit
(** Record the run's failure ({!Eff.Cycle_limit} also marks the budget). *)

val access : t -> task -> int -> bool -> (task -> unit) -> unit
(** [access s t waddr write k]: one-word access at [waddr]. Stores [waddr]
    in [t.addr], charges the memory system's latency to [t.clock], then
    continues at [k] directly when the new clock is strictly below every
    queued key (and the latency positive), or parks [t] with resume point
    [k]. Past the cycle budget it fails the run instead; under a
    lost-wakeup fault the task is parked and never queued. The heap read
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

val finish : t -> task -> unit
(** The task is done; the last child of a fork queues its parent at the
    children's maximum clock. *)

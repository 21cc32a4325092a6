(** The execution engine: elaborates the program's static storage against
    the runtime (allocating every declared array, applying distribution
    directives exactly as the paper's start-up code does), compiles all
    routines, and then runs the program unit on simulated processor 0.

    Tasks ({!Sched.task}) are scheduled strictly by minimum local clock, so
    memory-system events (directory transactions, memory-module queueing)
    happen in global simulated-time order and runs are deterministic. The
    scheduler loop pops the task with the smallest clock and resumes it
    with a plain call of its resume point; compiled code runs until it
    parks at an access, forks, finishes or fails. A [Par] region forks one
    task per simulated processor and joins at the maximum child clock —
    the doacross's implicit barrier. A [c$barrier] inside the region
    holds each worker until its siblings arrive ({!Sched.barrier}). *)

type outcome = {
  cycles : int;  (** program-unit completion time in simulated cycles *)
  prints : string list;
  counters : Ddsm_machine.Counters.t;  (** machine-wide totals *)
  parks : int;
      (** memory accesses after which the task went back on the run queue *)
  direct_continues : int;
      (** memory accesses after which the task resumed at once, its new
          clock strictly below every queued key (DESIGN.md §8) *)
  forks : int;  (** parallel regions entered *)
}
(** [parks], [direct_continues] and [forks] count scheduling decisions,
    not simulated time: they pin the schedule itself. [pflrun --stats]
    prints them. *)

val run :
  Prog.t ->
  rt:Ddsm_runtime.Rt.t ->
  ?checks:bool ->
  ?bounds:bool ->
  ?max_cycles:int ->
  ?audit:bool ->
  ?stall_limit:int ->
  ?observers:(Ddsm_runtime.Rt.event -> unit) list ->
  unit ->
  (outcome, Ddsm_check.Diag.t) result
(** [checks] enables the §6 runtime argument checks (default true);
    [bounds] enables subscript bounds checking on plain array views
    (default false); [max_cycles] aborts runaway programs.

    Failures are structured diagnoses ({!Ddsm_check.Diag.t}): user errors,
    cycle-budget exhaustion, deadlock (with the blocked-task tree and
    per-processor clocks), watchdog stalls ([stall_limit] scheduler steps
    without any clock advancing), and internal invariant violations. A
    failure is recorded as its {!Ddsm_check.Diag.reason} where it happens
    ({!Sched.fail}). One rule maps an exception escaping compiled code to
    its reason: {!Eff.Runtime_error} and heap exhaustion are [User];
    [Invalid_argument], [Failure] and anything else are [Internal], never
    disguised as user errors. The same rule covers those exceptions raised
    while elaborating storage or compiling routines, outside the scheduler,
    returned with [phase] ["elaborate"] or ["compile"].

    [audit] (default false) runs the full invariant audit ({!Rt.audit})
    after a successful run and fails with [Audit_failure] listing the
    violations if the machine state is inconsistent.

    [observers] (default none) subscribe to the run's typed event stream
    ({!Ddsm_runtime.Rt.event}): every memory access tagged with its
    parallel region, storage allocation, region fork and join, barrier
    releases,
    redistributions, gathers, and run marks (begin, end, cycle budget,
    lost wakeup, watchdog stall). Each event reaches every subscriber, in
    list order. The engine installs the runtime's observer and one
    machine probe, and removes both before [run] returns, on success or
    failure. With no subscriber no event is built and the machine probe
    is not touched. *)

val elaborate : Prog.t -> rt:Ddsm_runtime.Rt.t -> unit
(** Allocate static storage only (exposed for tests). Raises
    {!Eff.Runtime_error} on inconsistent common blocks. *)

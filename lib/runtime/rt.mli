(** The runtime-system context: one simulated machine plus heap, reshaped
    storage pools, the argument-check table, the array registry and the
    observer of the typed event stream ({!event}). This is what the startup
    code elaborates directives against and what the VM threads through. *)

open Ddsm_dist
open Ddsm_machine

type redist = {
  moved : int;  (** pages actually migrated (0 when [fell_back]) *)
  words : int;  (** data words that changed home (0 when [fell_back]) *)
  rounds : int;  (** all-to-all rounds of the communication schedule *)
  round_words : int;
      (** sum over rounds of the round's largest transfer — what the cost
          model charges for the scheduled data movement *)
  retries : int;  (** failed attempts, under the retry rule *)
  fell_back : bool;
      (** every attempt failed; the old placement was kept — correct but
          without the performance benefit of the new distribution *)
}

(** The outcome of one bulk gather fetch ({!gather_fetch}). *)
type fetch = {
  retries : int;  (** failed attempts, under the retry rule *)
  fell_back : bool;
      (** every attempt failed; scratch was not filled and the caller
          fetches per element *)
}

(** {2 The observer event stream}

    Everything the profiler, the sanitizer and the Chrome trace observe.
    Events are built only while {!field-observe} is set. *)

(** One memory access: the engine delivers the same value for every access
    of a run, and the machine refills [ev] in place, so read it during the
    call and never keep it. *)
type access = { mutable region : string; ev : Memsys.access_event }

type gather_step =
  | Inspect  (** the schedule was (re)built *)
  | Fetch  (** one bulk fetch through the cached schedule *)
  | Fallback  (** every bulk attempt failed: per-element loads *)

type mark =
  | Run_begin
  | Run_end  (** the run completed *)
  | Cycle_budget  (** a task passed the cycle budget *)
  | Wakeup_lost  (** an injected fault dropped a completion wakeup *)
  | Watchdog_stall  (** the scheduler stopped advancing any clock *)

(** [proc] is the simulated processor and [now] its clock in cycles. *)
type event =
  | Access of access
  | Alloc of { name : string; word_ranges : (int * int) list }
      (** storage now owned by array [name]: inclusive word ranges from
          elaboration, a reshaped relayout, or gather scratch (announced
          under the source array) *)
  | Fork of { region : string; nprocs : int; proc : int; now : int }
  | Join of { region : string; proc : int; now : int }
      (** [now] is the join time, the latest child clock *)
  | Barrier of { proc : int; now : int }  (** [proc] arrived at a barrier *)
  | Redistribute of { array : string; result : redist; proc : int; now : int }
  | Gather of {
      site : string;  (** ["routine#id"] *)
      step : gather_step;
      slots : int;
      rounds : int;
      retries : int;
      proc : int;
      now : int;
    }
  | Mark of { mark : mark; proc : int; now : int }

type t = {
  heap : Heap.t;
  mem : Memsys.t;
  pools : Pools.t;
  argcheck : Argcheck.t;
  arrays : (string, Darray.t) Hashtbl.t;
  mutable redist_pages : int;  (** pages moved by redistribute calls *)
  mutable redist_retries : int;  (** failed redistribute attempts *)
  mutable redist_fallbacks : int;
      (** redistribute calls that exhausted retries and kept the old
          placement *)
  mutable gather_inspections : int;
      (** gather schedule (re)inspections — cache misses *)
  mutable gather_retries : int;  (** failed bulk fetch attempts *)
  mutable gather_fallbacks : int;
      (** gathers that exhausted retries and fell back to per-element
          fetches *)
  job_procs : int;
      (** processors this job runs on (<= machine size): the paper runs
          P-processor jobs on a fixed 128-processor Origin-2000 *)
  mutable observe : (event -> unit) option;
      (** the event stream's observer, set by the engine for the length
          of a profiled or sanitized run *)
}

val create :
  Config.t -> policy:Pagetable.policy -> heap_words:int ->
  ?job_procs:int -> ?fault:Ddsm_check.Fault.t -> unit -> t
(** [fault] installs a deterministic fault plan on the simulated machine
    (see {!Ddsm_machine.Memsys.create}); its event counts
    ({!Ddsm_machine.Memsys.faults}) also decide the injected failures of
    {!redistribute}, {!gather_fetch} and {!note_barrier}. *)

val nprocs : t -> int
(** Job processor count (defaults to the machine size). *)

val note_barrier : t -> proc:int -> now:int -> unit
(** Announce processor [proc]'s arrival at a barrier as a [Barrier] event.
    Each call counts one [Barrier_note] of the fault plan; if the plan
    drops this one the arrival is never published — the seeded
    missing-synchronization bug the sanitizer must catch. Timing is
    unaffected either way. *)

(** Allocation entry points used by program elaboration. Arrays are
    registered by name; re-declaring a name is an error (the frontend
    scopes names before reaching here). *)

val declare_plain :
  t -> name:string -> elem:Darray.elem -> extents:int array ->
  ?lower:int array -> unit -> Darray.t

val declare_regular :
  t -> name:string -> elem:Darray.elem -> extents:int array ->
  ?lower:int array -> kinds:Kind.t array -> ?onto:int array -> unit -> Darray.t

val declare_reshaped :
  t -> name:string -> elem:Darray.elem -> extents:int array ->
  ?lower:int array -> kinds:Kind.t array -> ?onto:int array -> unit -> Darray.t

(** {2 The retry rule}

    {!redistribute} and {!gather_fetch}, the bulk operations a fault plan
    can fail, share one rule: at most 3 attempts per call. [retries]
    counts the failed ones, and the caller charges one backoff
    ([Costs.retry_backoff]) per retry; when all 3 fail the call falls
    back. *)

val redistribute :
  t -> name:string -> kinds:Kind.t array -> ?onto:int array -> ?procs:int ->
  unit -> (redist, string) result
(** Transition a distributed array — regular (pages re-homed) or reshaped
    (portions rebuilt and RCU-installed) — to new distribution kinds under
    the minimal-communication schedule. [procs] resizes the onto-grid; it
    is clamped to the job's processor count so one program runs on any
    machine size. The fault plan may inject retryable failures, either
    refusing a whole attempt ([redist-fail]) or failing a page migration
    mid-plan ([migrate-fail], rolled back by the machine layer): the call
    retries under the retry rule and, if every attempt fails, falls back
    to the old placement with [fell_back = true] — the caller charges a
    backoff per retry but the program's results are unaffected. [Error]
    is reserved for real misuse (unknown or plain arrays), whatever the
    fault plan. *)

val int_of_real : float -> int option
(** Checked real-to-integer element conversion: [None] for NaN and for
    magnitudes past the integer range, instead of [int_of_float]'s silent
    0/garbage. The VM and the fuzz reference interpreter both store
    integer elements through this rule. *)

val find_array : t -> string -> Darray.t option

(** {2 Inspector-executor gathers}

    A compiled [Stmt.Gather] owns its site's state, one per processor:
    scratch, source addresses and the cached schedule. The runtime keeps
    what needs the heap, the machine or the fault plan. *)

val alloc_gather_scratch : t -> src_array:string -> words:int -> int
(** Allocate (page-aligned, whole pages) scratch storage for a gather
    site, block-place its pages over the job's processors, announce the
    range as an [Alloc] of [src_array], and return the base word. *)

val gather_fetch :
  t -> elem:Darray.elem -> addrs:int array -> scratch:int -> slots:int ->
  fetch
(** One bulk fetch of the source words [addrs.(0 .. slots-1)] into the
    scratch words [scratch + 0 .. scratch + slots-1], shaped like
    {!redistribute}: each attempt counts one [Gather_fetch] of the fault
    plan, and under the retry rule the first that the plan does not fail
    copies every slot. When all fail, [fell_back] is set and scratch is
    untouched: the caller fetches each slot through timed loads and
    {!Darray.copy_elem}. The caller charges a backoff per retry and, when
    fetched, the round schedule. *)

val read : t -> addr:int -> elem:Darray.elem -> float
(** Raw data read (no timing); integers are returned as floats for the VM's
    untyped data path. *)

(* Test-only: tests seed array contents without simulated time. *)
val write : t -> addr:int -> elem:Darray.elem -> float -> unit
(** Raw data write (no timing). Integer elements go through
    {!int_of_real}; raises [Invalid_argument] when the value has no
    integer representation (the VM's store path reports the located
    runtime error before reaching here). *)

val audit : t -> Ddsm_check.Audit.violation list
(** Full runtime audit: the machine invariants ({!Memsys.audit}) plus the
    heap canaries of every registered array. Empty when clean. *)

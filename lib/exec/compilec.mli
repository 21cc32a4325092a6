(** Closure compilation of lowered routines.

    Each routine compiles once into continuation-passing OCaml closures
    over a typed slot frame. Every statement charges its static instruction
    cost (ALU ops, div/mod at the §7.3-dependent price, intrinsics,
    addressing) to the executing task's clock and ends by calling its
    successor, a continuation fixed when the routine is linked. Every
    memory reference — array elements, [AbsLoad]/[AbsStore] addresses,
    descriptor ([Meta]) and processor-base ([BaseOf]) loads — goes through
    {!Sched.access}, which commits it to the simulated memory system and
    then continues or parks the task at the access's continuation; the
    heap read or write happens after the commit. Values that live across an
    access (evaluated operands, a store's value, a load's result) sit in
    frame temporaries. Accesses happen in the order direct-style
    evaluation gives: binary operands and function arguments right to
    left, [let] sequences, [let ... and ...] and list walks left to right,
    and a store's value before its address. [Par] regions fork through
    {!Sched.fork}.

    Subroutine calls implement the Fortran conventions: arrays by
    reference (whole arrays carry their descriptor; elements of reshaped
    arrays are address-computed through the runtime oracle at the
    unoptimized Table 1 cost and become plain views in the callee), scalars
    by value (a documented simplification). A call pushes a return point
    (caller frame, successor, argument-check registrations) on the task;
    the callee's end and [Return] pop it. When checks are enabled, calls
    register reshaped actuals in the §6 hash table and entries validate
    formals against it. *)

type g

val qualified : Ddsm_sema.Sema.env -> string -> string
(** [qualified env a] is the runtime name of array [a] as declared in the
    routine of [env]: ["/blk/a"] for a member of common block [blk],
    ["routine/a"] otherwise. *)

val create :
  Prog.t ->
  rt:Ddsm_runtime.Rt.t ->
  sched:Sched.t ->
  checks:bool ->
  bounds:bool ->
  static_abind:(routine:string -> array:string -> Frame.abind option) ->
  print:(string -> unit) ->
  g

val set_cycle_limit : g -> int -> unit
(** Compiled loops abort with a runtime error once the task clock passes
    this limit (checked once per iteration; memory accesses are checked by
    {!Sched.access}). *)

val compile_all : g -> unit
(** Compile every routine in the program. Raises {!Eff.Runtime_error} on
    malformed input (e.g. calling an undefined routine is deferred to call
    time, but arity mismatches fail here). *)

val run_main : g -> Sched.task -> unit
(** The program unit's start: the master task's first resume point. It
    runs the program unit and then finishes the task. *)

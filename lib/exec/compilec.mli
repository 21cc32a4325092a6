(** Closure compilation of lowered routines.

    Each routine compiles once into continuation-passing OCaml closures
    over a typed slot frame. Each expression compiles into one value of
    its kind (integer or real) that carries its static cost, and only
    five primitives, which match the kind when they build a closure, tell
    the frame's integer and real slots apart. Every statement charges its
    static instruction cost (ALU ops, div/mod at the §7.3-dependent price,
    intrinsics, addressing) to the executing task's clock and ends by
    calling its successor, a continuation fixed when the routine is
    linked. Every memory reference — array elements, [AbsLoad]/[AbsStore]
    addresses, descriptor ([Meta]) and processor-base ([BaseOf]) loads —
    goes through {!Sched.access}, which commits it to the simulated
    memory system and then continues or parks the task at the access's
    continuation; the heap read or write happens after the commit. Values
    that live across an access (evaluated operands, a store's value, a
    load's result) sit in frame temporaries. Accesses happen in the order
    direct-style evaluation gives: binary operands and function arguments
    right to left, [let] sequences, [let ... and ...] and list walks left
    to right, and a store's value before its address. [Par] regions fork
    through {!Sched.fork}.

    Subroutine calls implement the Fortran conventions: arrays by
    reference (whole arrays carry their descriptor; elements of reshaped
    arrays are address-computed through the runtime oracle at the
    unoptimized Table 1 cost and become plain views in the callee), scalars
    by value (a documented simplification). A call pushes a return point
    (caller frame, successor, argument-check registrations) on the task;
    the callee's end and [Return] pop it. When checks are enabled, calls
    register reshaped actuals in the §6 hash table and entries validate
    formals against it. A routine's non-formal arrays are bound when it
    compiles, to the storage the engine declared in the runtime (an
    equivalenced array to its base's). Past the cycle budget, a loop
    iteration fails the run through {!Sched.fail} and stops the task.

    A compiled inspector-executor gather ([Stmt.Gather]) owns its site's
    state, made when it compiles: per processor of the job, the scratch,
    each iteration slot's source address and the cached round schedule.
    A task uses its processor's state, so workers of a [c$doacross] that
    all call one subroutine gather never share scratch. The gather leaves
    the scratch base in a frame slot, where [Expr.GatherBase] reads it;
    the runtime ({!Ddsm_runtime.Rt}) only allocates scratch, fetches and
    counts. *)

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
  print:(string -> unit) ->
  g

val compile_all : g -> unit
(** Compile every routine in the program. Raises {!Eff.Runtime_error} on
    malformed input (e.g. calling an undefined routine is deferred to call
    time, but arity mismatches fail here). *)

val run_main : g -> Sched.task -> unit
(** The program unit's start: the master task's first resume point. It
    runs the program unit and then finishes the task. *)

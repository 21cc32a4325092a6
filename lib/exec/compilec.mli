(** Closure compilation of lowered routines.

    Each routine compiles once into nested OCaml closures over a typed slot
    frame. Every statement charges its static instruction cost (ALU ops,
    div/mod at the §7.3-dependent price, intrinsics, addressing) to the
    executing worker's clock; every memory reference — array elements,
    [AbsLoad]/[AbsStore] addresses, descriptor ([Meta]) and processor-base
    ([BaseOf]) loads — performs an {!Eff.Mem} effect so the engine can
    charge the simulated memory system's latency. [Par] regions perform
    {!Eff.Fork}.

    Subroutine calls implement the Fortran conventions: arrays by
    reference (whole arrays carry their descriptor; elements of reshaped
    arrays are address-computed through the runtime oracle at the
    unoptimized Table 1 cost and become plain views in the callee), scalars
    by value (a documented simplification). When checks are enabled, calls
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
  checks:bool ->
  bounds:bool ->
  static_abind:(routine:string -> array:string -> Frame.abind option) ->
  print:(string -> unit) ->
  g

val set_cycle_limit : g -> int -> unit
(** Compiled loops abort with a runtime error once the worker clock passes
    this limit (checked at loop-entry granularity; memory accesses are
    checked by the engine). *)

val compile_all : g -> unit
(** Compile every routine in the program. Raises {!Eff.Runtime_error} on
    malformed input (e.g. calling an undefined routine is deferred to call
    time, but arity mismatches fail here). *)

val run_main : g -> Eff.ws -> unit
(** Execute the program unit on the given worker (inside an engine that
    handles the effects). *)

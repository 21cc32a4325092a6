(** The public facade: the full pipeline from mini-Fortran source with
    data-distribution directives to execution on the simulated Origin-2000.

    Quickstart:
    {[
      let source = "      program hello ... end" in
      match Ddsm_core.Ddsm.run_source ~nprocs:8 source with
      | Ok o -> List.iter print_endline o.Ddsm_exec.Engine.prints
      | Error e -> prerr_endline e
    ]}

    The stages are individually accessible for separate compilation
    ({!compile_source} produces object+shadow data, {!link} runs the
    pre-linker/cloning fixpoint) and for machine-configuration sweeps
    ({!make_rt} + {!run}). *)

open Ddsm_ir
module Flags = Ddsm_transform.Flags
module Engine = Ddsm_exec.Engine

module Fault = Ddsm_check.Fault
(** Deterministic fault plans (see {!Ddsm_check.Fault}): slow nodes, hot
    directories, congested links, TLB shootdowns, redistribution failures —
    perturbing performance, never values. *)

module Diag = Ddsm_check.Diag
(** Structured run diagnostics (what {!run} returns on failure). *)

module Audit = Ddsm_check.Audit
(** Invariant-audit violations (returned by {!Ddsm_runtime.Rt.audit}). *)

module Profile = Ddsm_report.Profile
(** Cycle-attribution profiler and Chrome-trace event buffer; pass one to
    {!run}/{!run_source} via [?profile]. *)

module Sanitize = Ddsm_sanitize.Sanitize
(** Happens-before race detector and false-sharing classifier; pass one to
    {!run}/{!run_source} via [?sanitize] and read its reports after the
    run. *)

module Json = Ddsm_report.Json
(** Minimal JSON values (trace export, bench snapshots). *)

type machine =
  | Origin2000  (** the paper's full-size parameters (§2) *)
  | Scaled of int  (** capacities shrunk by the factor (see DESIGN.md) *)

val parse : fname:string -> string -> (Decl.file, string) result

val compile_source :
  ?flags:Flags.t -> fname:string -> string ->
  (Ddsm_linker.Objfile.t, string list) result

val compile_path :
  ?flags:Flags.t -> string -> (Ddsm_linker.Objfile.t, string list) result
(** Read and compile a [.pf] source file. *)

val link :
  Ddsm_linker.Objfile.t list ->
  (Ddsm_exec.Prog.t * Ddsm_linker.Prelink.linked, string list) result

val make_rt :
  ?machine:machine -> ?policy:Ddsm_machine.Pagetable.policy ->
  ?heap_words:int -> ?machine_procs:int -> ?fault:Fault.t -> nprocs:int ->
  unit -> Ddsm_runtime.Rt.t
(** Defaults: [Scaled 64], first-touch, 16M-word heap, no faults. [nprocs]
    is the job's processor count; [machine_procs] (>= nprocs) sizes the
    simulated machine itself, so P-processor jobs can run on a larger fixed
    machine as in the paper's evaluation. [fault] installs a deterministic
    fault plan on the simulated machine. *)

val run :
  Ddsm_exec.Prog.t -> rt:Ddsm_runtime.Rt.t -> ?checks:bool -> ?bounds:bool ->
  ?max_cycles:int -> ?audit:bool -> ?stall_limit:int ->
  ?profile:Profile.t -> ?sanitize:Sanitize.t -> unit ->
  (Engine.outcome, Diag.t) result
(** See {!Ddsm_exec.Engine.run}: failures are structured diagnoses;
    [audit] adds a post-run invariant audit; [profile] attaches a cycle-attribution profiler for the duration of
    the run; [sanitize] attaches a happens-before sanitizer (inspect it
    after the run). *)

val run_source :
  ?flags:Flags.t -> ?machine:machine -> ?policy:Ddsm_machine.Pagetable.policy ->
  ?heap_words:int -> ?machine_procs:int -> ?fault:Fault.t -> ?nprocs:int ->
  ?checks:bool -> ?bounds:bool -> ?max_cycles:int -> ?audit:bool ->
  ?profile:Profile.t -> ?sanitize:Sanitize.t -> string ->
  (Engine.outcome, string) result
(** One-shot: parse, analyse, lower, link and execute a single source
    string (default 8 processors). Compile/link diagnostics are joined into
    the error string; run diagnoses are rendered with
    {!Diag.to_string}. *)

val save_image : Ddsm_linker.Prelink.linked -> path:string -> unit
val load_image : path:string -> (Ddsm_linker.Prelink.linked, string) result
(** Linked-program images (the [pflc]/[pflrun] interchange format). *)

val prog_of_linked : Ddsm_linker.Prelink.linked -> Ddsm_exec.Prog.t

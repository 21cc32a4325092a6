(** Compiled object files.

    One object corresponds to one source file: each routine in its lowered
    form only, the retained source AST (the pre-linker re-invokes
    compilation on the defining file to instantiate clones, §5), the
    optimization flags used, and the shadow, built once from the analysed
    routines. Linking reads an object and never changes it. [save]/[load]
    give the on-disk [.pfo] format. *)

open Ddsm_ir

type unit_ = {
  uname : string;
  env : Ddsm_sema.Sema.env;  (** [env.routine] is the lowered routine *)
}

type t = {
  src : Decl.file;
  flags : Ddsm_transform.Flags.t;
  units : unit_ list;
  shadow : Shadow.t;
}

val compile :
  ?flags:Ddsm_transform.Flags.t -> Decl.file -> (t, string list) result
(** Analyse and lower every routine of a parsed file, and derive the shadow
    entries (defs, reshaped call signatures, common declarations). *)

val lower : Ddsm_transform.Flags.t -> Ddsm_sema.Sema.env -> Ddsm_sema.Sema.env
(** The analysed environment with its routine replaced by the lowered and
    optimized one ({!Ddsm_transform.Pipeline.run}). *)

val compile_clone :
  t -> original:string -> clone:string -> sig_:Sig_.t -> (unit_, string list) result
(** Re-invoke compilation on this object's source to instantiate a clone of
    [original] named [clone], with the signature's distribute-reshape
    directives added to its formal parameters (§5). The object is not
    changed: the clone exists only in the returned unit. *)

val call_signature : Ddsm_sema.Sema.env -> Expr.t list -> Sig_.t
(** Signature of a call site: per argument, the reshape distribution when
    the actual is a whole reshaped array. *)

val save : t -> path:string -> unit
val load : path:string -> (t, string) result
(** The [.pfo] file: a {!Binfile} container holding the whole object,
    shadow entries included. *)

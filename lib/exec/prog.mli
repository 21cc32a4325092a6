(** Executable program representation: the linked routines, each an
    analysed environment whose routine is the lowered, optimized one (as
    produced by the compilation pipeline and the pre-linker). *)

type t = {
  routines : (string, Ddsm_sema.Sema.env) Hashtbl.t;
  main : string;  (** name of the program unit *)
}

val create : (string * Ddsm_sema.Sema.env) list -> main:string -> t
val find : t -> string -> Ddsm_sema.Sema.env option
val iter : t -> (string -> Ddsm_sema.Sema.env -> unit) -> unit

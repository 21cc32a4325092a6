(** Per-routine transformation context: the distilled array facts the
    lowering passes need, plus the fresh-name supply. *)

open Ddsm_ir

type arr = {
  name : string;
  kinds : Ddsm_dist.Kind.t array;
  reshape : bool;
  dynamic : bool;
      (** target of a [c$redistribute] in this routine: the declared [kinds]
          only describe the initial layout, so codegen must address through
          the run-time descriptor with kind-generic forms *)
  lowers : int array;  (** constant lower bounds (reshaped codegen needs them) *)
  extents : int array option;  (** constant extents when known *)
  ty : Types.ty;
  group : string;
      (** arrays with equal [group] keys have identical distribution and
          shape, so they can share loop tiling (§7.1: "other reshaped arrays
          that match the first array in size and distribution") *)
}

type t

val create : Ddsm_sema.Sema.env -> t


val fresh : t -> string -> string
val env : t -> Ddsm_sema.Sema.env

val distributed : t -> string -> arr option
(** Info for any distributed array (regular or reshaped). *)

val reshaped : t -> string -> arr option
(** Info only when the array is reshaped. *)

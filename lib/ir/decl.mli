(** Declarations, distribution directives, routines, and compilation units. *)

type dim = { dlo : Expr.t; dhi : Expr.t }
(** One array dimension [lo:hi]; the default lower bound is 1. *)

type vdecl = {
  vname : string;
  vty : Types.ty;
  vdims : dim list;  (** empty = scalar *)
  vloc : Loc.t;
}

type dist = {
  dtarget : string;
  dkinds : Ddsm_dist.Kind.t list;
  donto : int list option;
  dreshape : bool;
  dloc : Loc.t;
}

type rkind = Program | Subroutine

type routine = {
  rname : string;
  rkind : rkind;
  rparams : string list;
  rdecls : vdecl list;
  rconsts : (string * Expr.t) list;  (** [parameter] statements, in order *)
  rcommons : (string * string list) list;  (** block name -> member names *)
  requivs : (string * string) list;
  rdists : dist list;
  rbody : Stmt.t list;
  rloc : Loc.t;
}

type file = { fname : string; routines : routine list }

val find_routine : file -> string -> routine option
val pp_routine : Format.formatter -> routine -> unit

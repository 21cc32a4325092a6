(** Shadow entries (paper §5): the side-channel the compiler keeps with
    each object so the pre-linker can propagate reshape directives across
    separately compiled files. The paper keeps them in a file beside the
    object; here they are a section of the object itself ({!Objfile.t}),
    saved and loaded with it.

    A shadow records (a) each subroutine defined in the file along with the
    distribute-reshape directives on its parameters (trivial for original
    routines, non-trivial for clones), (b) each call site that passes a
    reshaped array as an argument, (c) pending clone requests inserted by
    the pre-linker, and (d) every common-block declaration with the shape,
    offset and distribution of each member — the input to the §6 link-time
    consistency check.

    [pflc dump] prints them as line-oriented text, so they stay
    inspectable, as in the original system. *)

type common_member = {
  cm_name : string;
  cm_offset : int;  (** word offset within the block *)
  cm_shape : int list;  (** extents; empty for scalars *)
  cm_dist : Sig_.arg option;  (** [Some] iff the member is reshaped *)
}

type t = {
  mutable defs : (string * Sig_.t) list;
  mutable calls : (string * Sig_.t) list;
  mutable requests : (string * Sig_.t) list;
  mutable commons : (string * string * common_member list) list;
      (** (block, declaring routine, members) — one per declaration *)
}

val empty : unit -> t
val add_def : t -> string -> Sig_.t -> unit
val add_call : t -> string -> Sig_.t -> unit
val add_request : t -> string -> Sig_.t -> unit
(** Idempotent. *)

val remove_request : t -> string -> Sig_.t -> unit
val add_common : t -> block:string -> routine:string -> common_member list -> unit
val to_string : t -> string
(** The line-oriented text [pflc dump] prints. *)

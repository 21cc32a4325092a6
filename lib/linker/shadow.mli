(** Shadow entries (paper §5): the side-channel the compiler keeps with
    each object so the pre-linker can propagate reshape directives across
    separately compiled files. The paper keeps them in a file beside the
    object; here they are a section of the object itself ({!Objfile.t}),
    built once when the file compiles and never changed afterwards: the
    pre-linker reads them, and the clones it makes live only in its
    result.

    A shadow records (a) each subroutine defined in the file along with the
    distribute-reshape directives on its parameters (trivial, since a file
    defines only original routines), (b) each call site that passes a
    reshaped array as an argument, and (c) every common-block declaration
    with the shape, offset and distribution of each member — the input to
    the §6 link-time consistency check.

    [pflc dump] prints them as line-oriented text, so they stay
    inspectable, as in the original system. *)

type common_member = {
  cm_name : string;
  cm_offset : int;  (** word offset within the block *)
  cm_shape : int list;  (** extents; empty for scalars *)
  cm_dist : Sig_.arg option;  (** [Some] iff the member is reshaped *)
}

type t = {
  defs : (string * Sig_.t) list;
  calls : (string * Sig_.t) list;  (** distinct, in source order *)
  commons : (string * string * common_member list) list;
      (** (block, declaring routine, members) — one per declaration *)
}

val to_string : t -> string
(** The line-oriented text [pflc dump] prints. *)

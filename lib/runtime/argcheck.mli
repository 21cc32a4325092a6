(** Runtime error-detection for reshaped arrays passed as subroutine
    arguments (paper §6).

    "At each subroutine invocation with a reshaped array (or a portion
    thereof) passed as an argument, we take the address being passed in and
    use it as an index into a runtime hash table to store information about
    the actual argument. ... Upon entry to each subroutine ... we compare
    the information found in the hash table with the declared shape and size
    of the formal parameter, generating a runtime error in case of a
    mismatch."

    Entries are pushed at the call site and popped on return, so recursive
    and nested calls passing the same address behave like a stack. *)

open Ddsm_dist

type info =
  | Whole_array of { extents : int array; kinds : Kind.t array }
      (** the entire reshaped array was passed *)
  | Portion of { words : int }
      (** an element was passed, i.e. a portion of the distributed array;
          only the portion's size is recorded *)

type t

val create : unit -> t

val register : t -> addr:int -> info -> unit
(** Call-site half: record the actual argument keyed by its address. *)

val unregister : t -> addr:int -> (unit, string) result
(** On return from the call. Unregistering an address with no live
    registration is an [Error]: it means the call protocol is unbalanced
    (a pop without a push), which would silently disable the §6 checks for
    every enclosing call — the caller must surface it. *)

val check_entry :
  t -> addr:int -> name:string -> formal_extents:int array ->
  ?formal_kinds:Kind.t array -> unit -> (unit, string) result
(** Subroutine-entry half: if [addr] is a registered reshaped actual,
    validate the declared formal against it:
    - whole array: dimension count and every extent must match exactly, and
      the formal's propagated distribution (when supplied) must match;
    - portion: the formal's total size must not exceed the portion size.

    Unregistered addresses pass trivially (the argument was not a reshaped
    array). *)

(* Test-only: tests check that entries stack and unregister. *)
val depth : t -> int
(** Total registered entries. *)

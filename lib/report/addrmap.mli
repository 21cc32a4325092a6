(** Address -> owner interval map: which registered array (or other
    owner) holds a byte address. Owners register inclusive word ranges
    ({!Ddsm_runtime.Darray.word_ranges}); lookups take byte addresses. The
    profiler resolves every access through it, the sanitizer every
    report; both register array names interned by {!Names}. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> word_ranges:(int * int) list -> 'a -> unit
(** Add an owner's inclusive [(lo, hi)] word ranges; empty ones are
    skipped. A lookup consults only the range with the greatest start at
    or below the address. *)

val find : 'a t -> int -> default:'a -> 'a
(** Owner of the byte address, or [default] when no range covers it.
    Allocates nothing unless ranges were added since the last lookup. *)

(** Dense ids for the labels the observers key their tables by: array
    names and region labels. *)
module Names : sig
  type t

  val create : unit -> t

  val id : t -> string -> int
  (** The label's id: 0, 1, 2, ... in order of first sight, equal strings
      sharing one. Asking again with the very string of the previous call
      (physical equality, as when every worker of a region passes its
      region's label) costs one comparison and no hashing. *)

  val name : t -> int -> string
  (** The label an id stands for. *)
end

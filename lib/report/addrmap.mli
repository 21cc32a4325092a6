(** Address -> owner interval map: which registered array (or other
    owner) holds a byte address. Owners register inclusive word ranges
    ({!Ddsm_runtime.Darray.word_ranges}); lookups take byte addresses. The
    profiler resolves every access through it, the sanitizer every
    report. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> word_ranges:(int * int) list -> 'a -> unit
(** Add an owner's inclusive [(lo, hi)] word ranges; empty ones are
    skipped. A lookup consults only the range with the greatest start at
    or below the address. *)

val find : 'a t -> int -> default:'a -> 'a
(** Owner of the byte address, or [default] when no range covers it. *)

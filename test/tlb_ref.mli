(** Reference (scanning) TLB — the differential oracle for the
    constant-time {!Ddsm_machine.Tlb}. Test-only. *)

type t

val create : entries:int -> t
val access : t -> page:int -> bool
val flush : t -> unit
val invalidate : t -> page:int -> unit
val resident : t -> int
val iter_resident : t -> (page:int -> unit) -> unit

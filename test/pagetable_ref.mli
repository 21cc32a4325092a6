(** Reference (Hashtbl-based) page table — the differential oracle for the
    flat-array {!Pagetable}. Test-only: random operation sequences must
    produce identical nodes and frames on both implementations. *)

open Ddsm_machine

type t

val create : Config.t -> Pagetable.policy -> t
val place : t -> page:int -> node:int -> unit
val home : t -> page:int -> faulting_node:int -> int
val home_opt : t -> page:int -> int option
val migrate : t -> page:int -> node:int -> unit
val frame : t -> page:int -> int
val node_of_frame : t -> int -> int
val pages_on_node : t -> node:int -> int
val placed_pages : t -> int

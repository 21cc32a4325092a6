(** Result-series formatting for the figure harness: the tables and
    ASCII speedup charts that stand in for the paper's figures. *)

type point = { x : int; y : float }
type t = { label : string; points : point list }

val speedup : baseline:float -> label:string -> (int * float) list -> t
(** Convert (x, time) measurements to speedups over [baseline]. *)

val pp_table :
  ?ylabel:string -> xlabel:string -> Format.formatter -> t list -> unit
(** Aligned columns: one row per distinct x, one column per series. *)

val pp_chart :
  ?height:int -> ?ideal:bool -> xlabel:string -> Format.formatter -> t list -> unit
(** ASCII chart of the series (used for the Figure 4–7 reproductions);
    [ideal] additionally draws the linear-speedup diagonal. *)

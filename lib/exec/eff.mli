(** The two exceptions compiled code raises to end a run. *)

exception Runtime_error of string
(** A user-program error (bad arguments, bounds, inconsistent commons…). *)

exception Cycle_limit of int
(** The simulated clock passed the run's cycle budget (the budget is the
    payload) — a resource bound, not a program error; the engine turns it
    into a structured diagnosis. *)

val error : ('a, unit, string, 'b) format4 -> 'a

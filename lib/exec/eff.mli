(** Worker state and the effects through which compiled code talks to the
    scheduler. Each simulated processor runs as an effect-based coroutine:
    compute advances its private clock directly; memory accesses and
    parallel-region forks are performed as effects so the engine can order
    them globally by simulated time. *)

type ws = {
  proc : int;  (** simulated processor executing this coroutine *)
  mutable clock : int;  (** local cycle count *)
  depth : int;  (** nesting depth of parallel regions (0 = serial) *)
}

type _ Effect.t +=
  | Mem : ws * int * bool -> unit Effect.t
      (** [(ws, word_addr, is_write)]: one-word access; the handler charges
          the latency to [ws.clock] *)
  | Fork : ws * (ws -> int -> unit) * int * string -> unit Effect.t
      (** [(ws, body, n, region)]: run [body child_ws p] for
          [p = 0..n-1] as child coroutines; resume the parent at the
          children's max clock.  [region] is a human-readable
          parallel-region label (["routine:line"]) used by the
          cycle-attribution profiler. *)

exception Runtime_error of string
(** A user-program error (bad arguments, bounds, inconsistent commons…). *)

exception Cycle_limit of int
(** The simulated clock passed the run's cycle budget (the budget is the
    payload) — a resource bound, not a program error; the engine turns it
    into a structured diagnosis. *)

val error : ('a, unit, string, 'b) format4 -> 'a

type ws = { proc : int; mutable clock : int; depth : int }

type _ Effect.t +=
  | Mem : ws * int * bool -> unit Effect.t
  | Fork : ws * (ws -> int -> unit) * int * string -> unit Effect.t

exception Runtime_error of string
exception Cycle_limit of int

let error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

exception Runtime_error of string
exception Cycle_limit of int

let error fmt = Printf.ksprintf (fun m -> raise (Runtime_error m)) fmt

type ty = Tint | Treal

let pp_ty ppf = function
  | Tint -> Format.pp_print_string ppf "integer"
  | Treal -> Format.pp_print_string ppf "real*8"

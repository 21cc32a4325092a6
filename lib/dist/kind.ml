type t = Block | Cyclic | Cyclic_k of int | Star

let equal a b =
  match (a, b) with
  | Block, Block | Cyclic, Cyclic | Star, Star -> true
  | Cyclic_k k1, Cyclic_k k2 -> k1 = k2
  | Cyclic_k 1, Cyclic | Cyclic, Cyclic_k 1 -> true
  | _ -> false

let is_distributed = function Star -> false | _ -> true

let normalise = function
  | Cyclic_k k when k < 1 -> invalid_arg "Kind.normalise: cyclic(k) needs k >= 1"
  | Cyclic_k 1 -> Cyclic
  | k -> k

let pp ppf = function
  | Block -> Format.pp_print_string ppf "block"
  | Cyclic -> Format.pp_print_string ppf "cyclic"
  | Cyclic_k k -> Format.fprintf ppf "cyclic(%d)" k
  | Star -> Format.pp_print_string ppf "*"

let to_string t = Format.asprintf "%a" pp t


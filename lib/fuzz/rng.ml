type t = { mutable s : int }

let mask = 0xFFFFFFFFFFFF

let create seed = { s = (seed * 2862933555777941757) land mask }

let next t =
  t.s <- ((t.s * 25214903917) + 11) land mask;
  t.s

let int t n = if n <= 0 then 0 else next t lsr 16 mod n
let range t lo hi = lo + int t (hi - lo + 1)
let bool t = int t 2 = 1
let chance t ~pct = int t 100 < pct

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | xs -> List.nth xs (int t (List.length xs))

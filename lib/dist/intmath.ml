(* Floor division that is exact for every numerator, including min_int:
   truncate-toward-zero then correct when a remainder was discarded on a
   negative numerator (the naive -((-a + b - 1) / b) overflows at -a when
   a = min_int). *)
let fdiv a b =
  if b <= 0 then invalid_arg "Intmath.fdiv: non-positive divisor";
  let q = a / b and r = a mod b in
  if r < 0 then q - 1 else q

let fmod a b = a - (b * fdiv a b)

let cdiv a b =
  if b <= 0 then invalid_arg "Intmath.cdiv: non-positive divisor";
  let q = a / b and r = a mod b in
  if r > 0 then q + 1 else q

let egcd a b =
  (* gcd (min_int, 0) = |min_int| is not representable, and min_int / -1
     silently wraps: refuse min_int operands outright rather than return a
     negative "gcd". *)
  if a = min_int || b = min_int then
    invalid_arg "Intmath.egcd: min_int operand (gcd unrepresentable)";
  let rec go a b =
    if b = 0 then if a >= 0 then (a, 1, 0) else (-a, -1, 0)
    else
      let g, x, y = go b (a mod b) in
      (g, y, x - (a / b * y))
  in
  go a b

let gcd a b =
  let g, _, _ = egcd a b in
  g

(* Horner from the last (slowest) dimension: the same sum of
   idx.(d) * radices.(0) * ... * radices.(d-1), one multiply per digit. *)
let linear ~radices idx =
  let lin = ref 0 in
  for d = Array.length idx - 1 downto 0 do
    lin := (!lin * radices.(d)) + idx.(d)
  done;
  !lin

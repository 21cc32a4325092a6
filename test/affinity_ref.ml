(* Reference model of affinity scheduling; see affinity_ref.mli. *)

open Ddsm_dist

module Ap = struct
  type t = { start : int; step : int }

  let align_up x ~base ~step =
    if step <= 0 then invalid_arg "Ap.align_up: non-positive step";
    if x <= base then base else base + (Intmath.cdiv (x - base) step * step)

  (* Steps are bounded so the CRT arithmetic below cannot overflow:
     operands reduced mod m stay below 2^31, so products stay below 2^62. *)
  let max_step = 1 lsl 31

  (* Solve { a.start + i*a.step } ∩ { b.start + j*b.step } by CRT. We need
     x ≡ a.start (mod a.step) and x ≡ b.start (mod b.step); solvable iff
     gcd divides the difference of the residues. *)
  let intersect a b =
    if a.step <= 0 || b.step <= 0 then invalid_arg "Ap.intersect";
    if a.step >= max_step || b.step >= max_step then
      invalid_arg "Ap.intersect: step >= 2^31 (CRT would overflow)";
    let g, u, _v = Intmath.egcd a.step b.step in
    let diff = b.start - a.start in
    (* a same-sign wrap here means the true difference exceeds the int
       range; refuse rather than intersect the wrong progressions *)
    if b.start >= a.start <> (diff >= 0) then
      invalid_arg "Ap.intersect: start difference overflows";
    if diff mod g <> 0 then None
    else
      let lcm = a.step / g * b.step in
      (* x = a.start + a.step * t where t ≡ u * (diff/g) (mod b.step/g);
         reduce both factors mod m first — the raw u * (diff/g) product
         overflows for large steps and far-apart starts *)
      let m = b.step / g in
      let t0 = Intmath.fmod (Intmath.fmod u m * Intmath.fmod (diff / g) m) m in
      let x0 = a.start + (a.step * t0) in
      (* x0 satisfies both congruences; move up to >= max of starts *)
      let lo = max a.start b.start in
      Some { start = align_up lo ~base:x0 ~step:lcm; step = lcm }
end

type spec = { s : int; c : int }
type piece = { lo : int; hi : int; step : int }

(* Iteration range in which the affinity element s*i+c stays inside [0, N). *)
let valid_range dm { s; c } =
  let n = dm.Dim_map.extent in
  if s = 0 then (min_int, max_int)
  else (Intmath.cdiv (-c) s, Intmath.fdiv (n - 1 - c) s)

let clamp_piece ~lb ~ub ~step ~vlo ~vhi ~base ~pstep lo hi =
  let lo = max (max lo lb) vlo and hi = min (min hi ub) vhi in
  if lo > hi then None
  else
    let lo = Ap.align_up lo ~base ~step:pstep in
    if lo > hi then None else Some { lo; hi; step }

let pieces dm spec ~lb ~ub ~step ~proc =
  if step <= 0 then invalid_arg "Affinity_ref.pieces: step must be positive";
  if lb > ub then []
  else
    let { s; c } = spec in
    if s < 0 then invalid_arg "Affinity_ref.pieces: negative affinity stride";
    let p = proc and pr = dm.Dim_map.procs in
    if p < 0 || p >= pr then invalid_arg "Affinity_ref.pieces: proc out of range";
    let vlo, vhi = valid_range dm spec in
    if s = 0 then
      (* all iterations touch element c: everything on its owner (nothing at
         all if c is outside the dimension — no iteration is valid) *)
      if c >= 0 && c < dm.Dim_map.extent && Dim_map.owner dm c = p then
        [ { lo = lb; hi = ub; step } ]
      else []
    else
      match dm.Dim_map.kind with
      | Kind.Star ->
          if p = 0 then [ { lo = lb; hi = ub; step } ] else []
      | Kind.Block ->
          let b = dm.Dim_map.block in
          let elo = p * b and ehi = min dm.Dim_map.extent ((p + 1) * b) - 1 in
          if elo > ehi then []
          else
            let lo = Intmath.cdiv (elo - c) s and hi = Intmath.fdiv (ehi - c) s in
            Option.to_list
              (clamp_piece ~lb ~ub ~step ~vlo ~vhi ~base:lb ~pstep:step lo hi)
      | Kind.Cyclic ->
          (* i such that s*i ≡ p - c (mod P): an arithmetic progression of
             period P/g when solvable. Intersect with the loop progression. *)
          let g, x, _ = Intmath.egcd s pr in
          if (p - c) mod g <> 0 then []
          else
            let period = pr / g in
            let i0 = Intmath.fmod (x * ((p - c) / g)) period in
            (* smallest i >= lb with i ≡ i0 (mod period) *)
            let own = { Ap.start = lb + Intmath.fmod (i0 - lb) period; step = period } in
            let loop = { Ap.start = lb; step } in
            (match Ap.intersect loop own with
            | None -> []
            | Some { Ap.start; step = st } ->
                let lo = max start vlo and hi = min ub vhi in
                if lo > hi then []
                else
                  let lo = Ap.align_up lo ~base:start ~step:st in
                  if lo > hi then [] else [ { lo; hi; step = st } ])
      | Kind.Cyclic_k k ->
          let n = dm.Dim_map.extent in
          let nchunks = Intmath.cdiv n k in
          (* chunks touched by iterations [lb, ub] *)
          let ch_lo = max 0 (Intmath.fdiv ((s * lb) + c) k)
          and ch_hi = min (nchunks - 1) (Intmath.fdiv ((s * ub) + c) k) in
          if p > ch_hi then []
          else
            let first = p + (Intmath.cdiv (max 0 (ch_lo - p)) pr * pr) in
            let acc = ref [] in
            let ch = ref first in
            while !ch <= ch_hi do
              let elo = !ch * k and ehi = min n ((!ch + 1) * k) - 1 in
              let lo = Intmath.cdiv (elo - c) s and hi = Intmath.fdiv (ehi - c) s in
              (match clamp_piece ~lb ~ub ~step ~vlo ~vhi ~base:lb ~pstep:step lo hi with
              | Some pc -> acc := pc :: !acc
              | None -> ());
              ch := !ch + pr
            done;
            List.rev !acc

let iters dm spec ~lb ~ub ~step ~proc =
  pieces dm spec ~lb ~ub ~step ~proc
  |> List.concat_map (fun { lo; hi; step } ->
         let rec go i acc = if i > hi then List.rev acc else go (i + step) (i :: acc) in
         go lo [])

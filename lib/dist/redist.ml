(* Minimal-communication redistribution schedules.

   Given two layouts of the same index space, compute which (source
   processor, destination processor) pairs exchange how many elements —
   closed-form from the block-cyclic parameters, never by scanning
   elements — and decompose the resulting all-to-all into rounds in which
   every processor sends at most one transfer and receives at most one
   (Rink et al.'s memory-bounded decomposition: round r pairs src with
   src + r mod R). *)

type move = { src : int; dst : int; words : int }
type round = { transfers : move list; max_words : int }

type t = {
  nprocs_src : int;
  nprocs_dst : int;
  total_words : int;
  local_words : int;
  cross_words : int;
  moves : move list;
  rounds : round list;
}

(* ------------------------------------------------------------------ *)
(* One dimension: (source owner, destination owner) -> element count.

   Owners of both layouts repeat with period lcm(b*P, b'*P') along the
   dimension (for Star, b = N and P = 1), so it suffices to walk the
   segments of one period — segment boundaries are the chunk boundaries
   of either layout — and replicate the counts across the extent. The
   walk visits O(period / min b) segments, never elements. *)

let dim_pairs (a : Dim_map.t) (b : Dim_map.t) =
  if a.Dim_map.extent <> b.Dim_map.extent then
    invalid_arg "Redist.dim_pairs: extent mismatch";
  let n = a.Dim_map.extent in
  let ba = a.Dim_map.block and bb = b.Dim_map.block in
  let span (m : Dim_map.t) = m.Dim_map.block * m.Dim_map.procs in
  let sa = span a and sb = span b in
  let g = Intmath.gcd sa sb in
  let lcm = sa / g * sb in
  let period = if lcm >= n || lcm <= 0 then n else lcm in
  let full = n / period and tail = n mod period in
  let acc = Hashtbl.create 16 in
  let add key c =
    if c > 0 then
      Hashtbl.replace acc key
        (c + Option.value ~default:0 (Hashtbl.find_opt acc key))
  in
  let next_mult i blk = ((i / blk) + 1) * blk in
  let i = ref 0 in
  while !i < period do
    let j = min period (min (next_mult !i ba) (next_mult !i bb)) in
    let len = j - !i in
    (* the tail [full*period, n) replays pattern positions [0, tail) *)
    let count = (full * len) + max 0 (min j tail - !i) in
    add (Dim_map.owner a !i, Dim_map.owner b !i) count;
    i := j
  done;
  Hashtbl.fold (fun key c l -> (key, c) :: l) acc []
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Round decomposition: class r holds the pairs with (dst - src) mod R = r.
   Within one class each processor appears in at most one transfer as
   source and at most one as destination, so a class is a legal round and
   the per-processor staging memory is bounded by the round's largest
   transfer. *)

let round_class ~r ~src ~dst = Intmath.fmod (dst - src) r

let rounds_of_moves ~r moves =
  let classes = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let c = round_class ~r ~src:m.src ~dst:m.dst in
      Hashtbl.replace classes c
        (m :: Option.value ~default:[] (Hashtbl.find_opt classes c)))
    moves;
  Hashtbl.fold (fun c ms l -> (c, ms) :: l) classes []
  |> List.sort compare
  |> List.map (fun (_, ms) ->
         let ms = List.sort compare ms in
         {
           transfers = ms;
           max_words = List.fold_left (fun m t -> max m t.words) 0 ms;
         })

(* ------------------------------------------------------------------ *)
(* Whole-array schedule: the multi-dimensional pair map is the cartesian
   product of the per-dimension maps (counts multiply), linearised through
   each layout's own processor grid. *)

let build ~src:(la : Layout.t) ~dst:(lb : Layout.t) =
  if la.Layout.extents <> lb.Layout.extents then
    invalid_arg "Redist.build: layouts describe different index spaces";
  let nd = Array.length la.Layout.extents in
  let per_dim =
    Array.init nd (fun d -> dim_pairs la.Layout.dims.(d) lb.Layout.dims.(d))
  in
  let acc = Hashtbl.create 64 in
  let oa = Array.make nd 0 and ob = Array.make nd 0 in
  let rec go d count =
    if d = nd then begin
      let key = (Grid.linear la.Layout.grid oa, Grid.linear lb.Layout.grid ob)
      in
      Hashtbl.replace acc key
        (count + Option.value ~default:0 (Hashtbl.find_opt acc key))
    end
    else
      List.iter
        (fun ((sa, sb), c) ->
          oa.(d) <- sa;
          ob.(d) <- sb;
          go (d + 1) (count * c))
        per_dim.(d)
  in
  if nd > 0 then go 0 1;
  let pairs =
    Hashtbl.fold (fun (s, d) c l -> { src = s; dst = d; words = c } :: l) acc []
    |> List.sort compare
  in
  let total = List.fold_left (fun t m -> t + m.words) 0 pairs in
  let local =
    List.fold_left (fun t m -> if m.src = m.dst then t + m.words else t) 0 pairs
  in
  let moves = List.filter (fun m -> m.src <> m.dst) pairs in
  let r = max (Layout.nprocs la) (Layout.nprocs lb) in
  {
    nprocs_src = Layout.nprocs la;
    nprocs_dst = Layout.nprocs lb;
    total_words = total;
    local_words = local;
    cross_words = total - local;
    moves;
    rounds = rounds_of_moves ~r moves;
  }

let nrounds t = List.length t.rounds

(* Scheduled-time proxy: rounds run one after another, transfers within a
   round in parallel, so a round costs its largest transfer. *)
let round_words rounds =
  List.fold_left (fun acc r -> acc + r.max_words) 0 rounds

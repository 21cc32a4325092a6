(* Irregular-access benchmark: naive indirect references vs. the
   inspector-executor transform (DESIGN.md §12).

   An ELL sparse matrix-vector multiply reads the dense vector through a
   column-index array, so every iteration's home node is run-time data.
   Naive code pays a (mostly remote, contended) miss per reference; the
   transformed code walks the index array once, bulk-gathers the
   referenced elements per home into block-placed scratch, and the
   executor reads the scratch locally.  The sweep compares the two at
   8..128 simulated processors on the same machine model; a second leg
   differences per-sweep cycles to show the cached gather schedule makes
   warm sweeps cheaper than the first. The driver (main.ml) runs it as
   `irregular`. *)

open Harness
module Counters = Ddsm_machine.Counters

let naive_flags = { Flags.all_on with Flags.inspector = false }

(* ELL spmv: k nonzeros per row, column indices scattered over the whole
   vector by a multiplicative pattern, [sweeps] multiply passes *)
let spmv_src ~n ~k ~sweeps =
  Printf.sprintf
    {|      program spmv
      integer n, k, ns, i, j, s
      parameter (n = %d, k = %d, ns = %d)
      real*8 a(n*k), x(n), y(n), t
      integer col(n*k)
c$distribute a(block), x(block), y(block), col(block)
      do i = 1, n
        x(i) = 1.0 + mod(i, 7)
        y(i) = 0.0
      enddo
      do i = 1, n
        do j = 1, k
          col((i-1)*k + j) = 1 + mod(i*197 + j*89, n)
          a((i-1)*k + j) = 0.001 * (i + j)
        enddo
      enddo
      do s = 1, ns
c$doacross local(i, j) affinity(i) = data(y(i))
        do i = 1, n
          do j = 1, k
            y(i) = y(i) + a((i-1)*k + j) * x(col((i-1)*k + j))
          enddo
        enddo
      enddo
      t = 0.0
      do i = 1, n
        t = t + y(i)
      enddo
      print *, 'checksum:', t
      end
|}
    n k sweeps

(* edge-centric graph pass: two gather sites (both endpoint arrays) per
   loop; rank is rewritten between sweeps, so the schedules re-inspect *)
let graph_src ~n ~m ~sweeps =
  Printf.sprintf
    {|      program graph
      integer n, m, ns, i, e, s
      parameter (n = %d, m = %d, ns = %d)
      integer srcv(m), dstv(m)
      real*8 rank(n), contrib(m), acc
c$distribute rank(block), srcv(block), dstv(block), contrib(block)
      do e = 1, m
        srcv(e) = 1 + mod(e*131, n)
        dstv(e) = 1 + mod(e*73 + 5, n)
      enddo
      do i = 1, n
        rank(i) = 1.0
      enddo
      do s = 1, ns
c$doacross local(e) affinity(e) = data(contrib(e))
        do e = 1, m
          contrib(e) = 0.5 * rank(srcv(e)) + 0.5 * rank(dstv(e))
        enddo
        acc = 0.0
        do e = 1, m
          acc = acc + contrib(e)
        enddo
        do i = 1, n
          rank(i) = 0.85 * rank(i) + 0.15 * (acc / n)
        enddo
      enddo
      acc = 0.0
      do i = 1, n
        acc = acc + rank(i)
      enddo
      print *, 'rank sum:', acc
      end
|}
    n m sweeps

let setup = mk_setup ~machine_procs:128 ~factor:64 ~heap_words:(1 lsl 22) ()
let procs = [ 8; 16; 32; 64; 128 ]
let counter k c = List.assoc k (Counters.to_assoc c)

(* remote traffic the irregular references cause: line fills served by a
   remote home plus memory-module queueing *)
let remote_cost (o : Ddsm.Engine.outcome) =
  counter "remote_fills" o.Ddsm.Engine.counters
  + counter "contention_cycles" o.Ddsm.Engine.counters

type point = {
  nprocs : int;
  naive : Ddsm.Engine.outcome;
  insp : Ddsm.Engine.outcome;
}

let run_variants ~label src =
  Format.fprintf ppf "%s@." label;
  Format.fprintf ppf "  %6s %12s %12s %14s %14s %8s@." "procs" "naive_cyc"
    "insp_cyc" "naive_remote" "insp_remote" "same";
  let naive_prog = compile ~flags:naive_flags src in
  let insp_prog = compile src in
  let pts =
    List.map
      (fun nprocs ->
        let naive = run_prog ~setup ~version:W.Regular ~nprocs naive_prog in
        let insp = run_prog ~setup ~version:W.Regular ~nprocs insp_prog in
        Format.fprintf ppf "  %6d %12d %12d %14d %14d %8s@." nprocs
          naive.Ddsm.Engine.cycles insp.Ddsm.Engine.cycles (remote_cost naive)
          (remote_cost insp)
          (if naive.Ddsm.Engine.prints = insp.Ddsm.Engine.prints then "yes"
           else "NO");
        { nprocs; naive; insp })
      procs
  in
  Format.pp_print_newline ppf ();
  pts

(* per-sweep cycles by differencing sweep counts: the first sweep pays
   inspection, later sweeps reuse the cached schedule *)
let reuse_leg ~nprocs =
  let cycles sweeps =
    (outcome ~setup ~version:W.Regular ~nprocs (spmv_src ~n:2048 ~k:4 ~sweeps))
      .Ddsm.Engine.cycles
  in
  let c0 = cycles 0 and c1 = cycles 1 and c2 = cycles 2 in
  let cold = c1 - c0 and warm = c2 - c1 in
  Format.fprintf ppf
    "spmv per-sweep cycles at %d procs: cold (inspect) %d, warm (cached) %d@."
    nprocs cold warm;
  (cold, warm)

let run () =
  section "Irregular access: naive vs. inspector-executor";
  let spmv_pts = run_variants ~label:"spmv (ELL, n=2048, k=4, 2 sweeps)"
      (spmv_src ~n:2048 ~k:4 ~sweeps:2) in
  let graph_pts = run_variants ~label:"graph (n=512, m=2048, 2 sweeps)"
      (graph_src ~n:512 ~m:2048 ~sweeps:2) in
  let cold, warm = reuse_leg ~nprocs:32 in
  Format.pp_print_newline ppf ();
  let big = List.filter (fun p -> p.nprocs >= 32) spmv_pts in
  let verdicts =
    check
      [
        ( "spmv: inspector remote fills + contention < naive at >= 32 procs",
          List.for_all (fun p -> remote_cost p.insp < remote_cost p.naive) big );
        ("spmv: warm sweep (cached schedule) cheaper than cold sweep", warm < cold);
        ( "spmv + graph: outputs identical with and without inspector",
          List.for_all
            (fun p -> p.naive.Ddsm.Engine.prints = p.insp.Ddsm.Engine.prints)
            (spmv_pts @ graph_pts) );
      ]
  in
  let open Json in
  let json_point p =
    let side (o : Ddsm.Engine.outcome) =
      Obj
        [
          ("cycles", Int o.Ddsm.Engine.cycles);
          ("remote_fills", Int (counter "remote_fills" o.Ddsm.Engine.counters));
          ( "contention_cycles",
            Int (counter "contention_cycles" o.Ddsm.Engine.counters) );
        ]
    in
    Obj
      [ ("nprocs", Int p.nprocs); ("naive", side p.naive); ("inspector", side p.insp) ]
  in
  write_json ~path:"BENCH_irregular.json"
    (Obj
       [
         ("experiment", Str "irregular");
         ("spmv", List (List.map json_point spmv_pts));
         ("graph", List (List.map json_point graph_pts));
         ( "schedule_reuse",
           Obj [ ("cold_sweep_cycles", Int cold); ("warm_sweep_cycles", Int warm) ] );
       ]);
  verdicts

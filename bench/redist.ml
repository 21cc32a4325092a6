(* Redistribution benchmark: naive vs. scheduled communication plans.

   For block-cyclic(k) -> block-cyclic(k') transitions (including onto-grid
   resizes) at 8..128 simulated processors, compares

     naive     — move every cross word serially, paying the transfer setup
                 once per (src, dst) pair and the full serial volume;
     scheduled — the Redist.build plan: rounds in which every processor
                 sends at most one transfer and receives at most one, so a
                 round costs its LARGEST transfer (Rink et al.), and only
                 words whose home actually changes move at all.

   The analytic sweep uses the same Costs model the engine charges, so the
   numbers line up with what `c$redistribute` costs in a simulated run; an
   end-to-end leg runs a real redistribute program through the engine over
   the processor sweep as a cross-check that the scheduled path executes at
   every machine size. The driver (main.ml) runs it as `redist`. *)

open Harness
module Redist = Ddsm_dist.Redist
module Layout = Ddsm_dist.Layout
module Kind = Ddsm_dist.Kind
module Costs = Ddsm_exec.Costs

type sweep = {
  label : string;
  extents : int array;
  src_kinds : int -> Kind.t array;  (* nprocs -> kinds *)
  dst_kinds : int -> Kind.t array;
  dst_procs : int -> int;  (* onto-grid resize: dst processor count *)
}

let cyc k = Kind.Cyclic_k k

let sweeps =
  [
    {
      label = "1-D cyclic(3) -> cyclic(5), n=12288";
      extents = [| 12288 |];
      src_kinds = (fun _ -> [| cyc 3 |]);
      dst_kinds = (fun _ -> [| cyc 5 |]);
      dst_procs = (fun p -> p);
    };
    {
      label = "1-D block -> cyclic(4), n=12288";
      extents = [| 12288 |];
      src_kinds = (fun _ -> [| Kind.Block |]);
      dst_kinds = (fun _ -> [| cyc 4 |]);
      dst_procs = (fun p -> p);
    };
    {
      label = "1-D cyclic(8) -> cyclic(8) onto P/2 (shrink), n=12288";
      extents = [| 12288 |];
      src_kinds = (fun _ -> [| cyc 8 |]);
      dst_kinds = (fun _ -> [| cyc 8 |]);
      dst_procs = (fun p -> max 1 (p / 2));
    };
    {
      label = "2-D (block,cyclic(2)) -> (cyclic(3),block), 128x96";
      extents = [| 128; 96 |];
      src_kinds = (fun _ -> [| Kind.Block; cyc 2 |]);
      dst_kinds = (fun _ -> [| cyc 3; Kind.Block |]);
      dst_procs = (fun p -> p);
    };
  ]

let procs = [ 8; 16; 32; 64; 128 ]

type point = {
  nprocs : int;
  cross_words : int;
  total_words : int;
  transfers : int;
  rounds : int;
  round_words : int;
  naive_cycles : int;
  sched_cycles : int;
}

(* the unscheduled plan moves every cross word serially, paying the round
   setup once per transfer: a schedule of one transfer per round *)
let naive_cycles ~cross_words ~transfers =
  Costs.scheduled ~round:Costs.redistribute_round ~rounds:transfers
    ~round_words:cross_words

let measure sweep nprocs =
  let src =
    Layout.make ~extents:sweep.extents ~kinds:(sweep.src_kinds nprocs) ~nprocs ()
  in
  let dst =
    Layout.make ~extents:sweep.extents ~kinds:(sweep.dst_kinds nprocs)
      ~nprocs:(sweep.dst_procs nprocs) ()
  in
  let s = Redist.build ~src ~dst in
  let rounds = Redist.nrounds s and round_words = Redist.round_words s.Redist.rounds in
  let transfers = List.length s.Redist.moves in
  {
    nprocs;
    cross_words = s.Redist.cross_words;
    total_words = s.Redist.total_words;
    transfers;
    rounds;
    round_words;
    naive_cycles = naive_cycles ~cross_words:s.Redist.cross_words ~transfers;
    sched_cycles =
      Costs.scheduled ~round:Costs.redistribute_round ~rounds ~round_words;
  }

let run_sweep sweep =
  Format.fprintf ppf "%s@." sweep.label;
  Format.fprintf ppf "  %6s %10s %10s %6s %10s %12s %12s %8s@." "procs"
    "cross_w" "round_w" "rounds" "transfers" "naive_cyc" "sched_cyc" "ratio";
  let pts = List.map (measure sweep) procs in
  List.iter
    (fun p ->
      Format.fprintf ppf "  %6d %10d %10d %6d %10d %12d %12d %7.2fx@." p.nprocs
        p.cross_words p.round_words p.rounds p.transfers p.naive_cycles
        p.sched_cycles
        (float_of_int p.naive_cycles /. float_of_int (max 1 p.sched_cycles)))
    pts;
  Format.pp_print_newline ppf ();
  pts

(* end-to-end: a real redistribute chain through the engine at each P *)
let redist_prog n =
  Printf.sprintf
    {|      program rb
      real a(%d)
      integer i
      real s
c$distribute a(cyclic(3))
      do i = 1, %d
        a(i) = i
      enddo
c$redistribute a(cyclic(5))
c$redistribute a(block)
      s = 0.0
      do i = 1, %d
        s = s + a(i)
      enddo
      print *, s
      end
|}
    n n n

let engine_leg () =
  Format.fprintf ppf "end-to-end engine cycles (cyclic(3)->cyclic(5)->block, n=4096):@.";
  let setup =
    mk_setup ~machine_procs:128 ~factor:64 ~heap_words:(1 lsl 22) ()
  in
  let prog = compile (redist_prog 4096) in
  List.map
    (fun p ->
      let o = run_prog ~setup ~version:W.Regular ~nprocs:p prog in
      Format.fprintf ppf "  %6d procs: %10d cycles@." p o.Ddsm.Engine.cycles;
      (p, o.Ddsm.Engine.cycles))
    procs

let run () =
  section "Redistribution: naive vs. scheduled plans";
  let results = List.map (fun s -> (s, run_sweep s)) sweeps in
  let engine = engine_leg () in
  Format.pp_print_newline ppf ();
  (* the sweep's claims: at >= 32 processors the scheduled plan
     must win on both the communication-volume proxy and total cycles *)
  let big p = p.nprocs >= 32 in
  let verdicts =
    check
      (List.concat_map
         (fun (s, pts) ->
           let bigs = List.filter big pts in
           [
             ( Printf.sprintf "%s: round volume < serial cross volume" s.label,
               List.for_all (fun p -> p.round_words < p.cross_words) bigs );
             ( Printf.sprintf "%s: scheduled cycles < naive at >= 32 procs" s.label,
               List.for_all (fun p -> p.sched_cycles < p.naive_cycles) bigs );
           ])
         results)
  in
  let open Json in
  write_json ~path:"BENCH_redist.json"
    (Obj
       [
         ("experiment", Str "redist");
         ( "sweeps",
           List
             (List.map
                (fun (s, pts) ->
                  Obj
                    [
                      ("label", Str s.label);
                      ( "points",
                        List
                          (List.map
                             (fun p ->
                               Obj
                                 [
                                   ("nprocs", Int p.nprocs);
                                   ("total_words", Int p.total_words);
                                   ("cross_words", Int p.cross_words);
                                   ("round_words", Int p.round_words);
                                   ("rounds", Int p.rounds);
                                   ("transfers", Int p.transfers);
                                   ("naive_cycles", Int p.naive_cycles);
                                   ("scheduled_cycles", Int p.sched_cycles);
                                 ])
                             pts) );
                    ])
                results) );
         ( "engine_leg",
           List
             (List.map
                (fun (p, c) ->
                  Obj [ ("nprocs", Int p); ("cycles", Int c) ])
                engine) );
       ]);
  verdicts

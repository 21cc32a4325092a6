(* Quickstart: compile and run a directive-annotated program on the
   simulated Origin-2000, entirely through the public API.

     dune exec examples/quickstart.exe

   The program distributes an array with c$distribute_reshape, initializes
   and sums it in parallel with affinity-scheduled doacross loops, and
   prints the result; we then show the simulated execution time and the
   hardware-counter-style statistics. *)

module Ddsm = Ddsm_core.Ddsm

let source =
  {|
      program quickstart
      integer n, i
      parameter (n = 10000)
      real*8 a(n), s
c$distribute_reshape a(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = sqrt(dble(i))
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i)
      enddo
      print *, 'sum of square roots:', s
      end
|}

let () =
  print_endline "--- quickstart: 16 simulated processors ---";
  match Ddsm.run_source ~nprocs:16 source with
  | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
  | Ok o ->
      List.iter print_endline o.Ddsm.Engine.prints;
      Printf.printf "simulated cycles: %d\n\n" o.Ddsm.Engine.cycles;
      Format.printf "%a@." Ddsm_report.Stats.pp
        (Ddsm_report.Stats.of_counters o.Ddsm.Engine.counters);
      (* the same executable semantics on 1 processor, for comparison *)
      (match Ddsm.run_source ~nprocs:1 source with
      | Ok o1 ->
          Printf.printf "\n1-processor cycles: %d  (parallel speedup %.1fx)\n"
            o1.Ddsm.Engine.cycles
            (float_of_int o1.Ddsm.Engine.cycles /. float_of_int o.Ddsm.Engine.cycles)
      | Error e ->
          prerr_endline ("error: " ^ e);
          exit 1)

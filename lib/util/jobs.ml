(* Domain-parallel fan-out for independent deterministic simulations.

   Every figure sweep and differential-oracle run is embarrassingly
   parallel: each job builds its own [Rt]/[Memsys] and shares nothing with
   its siblings. [map] farms such jobs out over OCaml 5 domains, returning
   results (and re-raising exceptions) in job-list order, so the observable
   output of a parallel sweep is byte-identical to the sequential one. *)

type 'b slot = Pending | Done of 'b | Raised of exn * Printexc.raw_backtrace

let map ?(jobs = 1) f xs =
  if jobs < 1 then invalid_arg "Jobs.map: jobs < 1";
  let n = List.length xs in
  if jobs <= 1 || n <= 1 then List.map f xs
  else begin
    let inputs = Array.of_list xs in
    let results = Array.make n Pending in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (results.(i) <-
            (match f inputs.(i) with
            | y -> Done y
            | exception e -> Raised (e, Printexc.get_raw_backtrace ())));
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.make (min jobs n - 1) None in
    (* if a spawn itself fails (domain limit), join whatever started —
       those workers drain every job — before re-raising *)
    (try
       for i = 0 to Array.length spawned - 1 do
         spawned.(i) <- Some (Domain.spawn worker)
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       worker ();
       Array.iter (Option.iter Domain.join) spawned;
       Printexc.raise_with_backtrace e bt);
    worker ();
    Array.iter (Option.iter Domain.join) spawned;
    (* deterministic reduction: deliver results — and the lowest-index
       failure, with its own backtrace — in job order, regardless of which
       domain ran what when *)
    Array.iter
      (function
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Done _ | Pending -> ())
      results;
    Array.to_list
      (Array.map
         (function Done y -> y | Raised _ | Pending -> assert false)
         results)
  end

(* Randomized differential testing of the full pipeline: generate random
   directive-annotated stencil programs and run each through the fuzzing
   differential driver ([Ddsm_fuzz.Differ]), which checks it against the
   reference interpreter and checks every processor count, placement
   policy, fault plan and §7 flag set it runs the program under against
   the base run. *)

module K = Ddsm_dist.Kind
module Rt = Ddsm_runtime.Rt
module Fault = Ddsm_check.Fault
module Diag = Ddsm_check.Diag
module Differ = Ddsm_fuzz.Differ
module Ddsm = Ddsm_core.Ddsm

(* ------------------------------------------------------------------ *)
(* program generator *)

type gened = { src : string; label : string }

let kind_to_src = function
  | K.Block -> "block"
  | K.Cyclic -> "cyclic"
  | K.Cyclic_k k -> Printf.sprintf "cyclic(%d)" k
  | K.Star -> "*"

let gen_1d rng =
  let module G = QCheck.Gen in
  let n = G.generate1 ~rand:rng (G.int_range 16 80) in
  let kind =
    G.generate1 ~rand:rng
      (G.oneofl [ K.Block; K.Cyclic; K.Cyclic_k 3; K.Cyclic_k 5 ])
  in
  let reshape = G.generate1 ~rand:rng G.bool in
  let off1 = G.generate1 ~rand:rng (G.int_range (-2) 2) in
  let off2 = G.generate1 ~rand:rng (G.int_range (-2) 2) in
  let scale = G.generate1 ~rand:rng (G.int_range 1 2) in
  let step = G.generate1 ~rand:rng (G.oneofl [ 1; 1; 1; 2; 3 ]) in
  let lo = 1 + max 0 (max (-off1) (-off2)) in
  let hi_margin = max 0 (max off1 off2) in
  let use_affinity = G.generate1 ~rand:rng G.bool in
  let dist_line =
    Printf.sprintf "c$distribute%s a(%s), b(%s)"
      (if reshape then "_reshape" else "")
      (kind_to_src kind) (kind_to_src kind)
  in
  (* affinity needs s*i+c with literal s >= 0 *)
  let affinity =
    if use_affinity then
      Printf.sprintf " affinity(i) = data(a(%d*i))" scale
    else ""
  in
  let loop_hi = (n - hi_margin) / scale in
  let src =
    Printf.sprintf
      {|
      program r1
      integer n, i
      parameter (n = %d)
      real*8 a(n), b(n), s
%s
      do i = 1, n
        a(i) = mod(i * 13, 17)
        b(i) = mod(i * 7, 23)
      enddo
c$doacross local(i)%s
      do i = %d, %d, %d
        a(%d*i) = (b(%d*i+%d) + b(%d*i+%d)) * 0.5 + a(%d*i)
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i) * mod(i, 9)
      enddo
      print *, s
      end
|}
      n dist_line affinity lo loop_hi step scale scale off1 scale off2 scale
  in
  {
    src;
    label =
      Printf.sprintf "1d n=%d %s%s s=%d offs=(%d,%d) step=%d%s" n
        (kind_to_src kind)
        (if reshape then " reshaped" else " regular")
        scale off1 off2 step
        (if use_affinity then " aff" else "");
  }

let gen_2d rng =
  let module G = QCheck.Gen in
  let n = G.generate1 ~rand:rng (G.int_range 10 28) in
  let k1 = G.generate1 ~rand:rng (G.oneofl [ K.Block; K.Star; K.Cyclic ]) in
  let k2 = G.generate1 ~rand:rng (G.oneofl [ K.Block; K.Cyclic ]) in
  let reshape = G.generate1 ~rand:rng G.bool in
  let oi = G.generate1 ~rand:rng (G.int_range (-1) 1) in
  let oj = G.generate1 ~rand:rng (G.int_range (-1) 1) in
  let nest = G.generate1 ~rand:rng G.bool in
  let dist_line =
    Printf.sprintf "c$distribute%s a(%s, %s), b(%s, %s)"
      (if reshape then "_reshape" else "")
      (kind_to_src k1) (kind_to_src k2) (kind_to_src k1) (kind_to_src k2)
  in
  (* nest+affinity requires every nest var constrained; use affinity only
     when both dims are distributed *)
  let affinity =
    if nest && K.is_distributed k1 && K.is_distributed k2 then
      " affinity(j, i) = data(a(i, j))"
    else ""
  in
  let clause = if nest then Printf.sprintf " nest(j, i)%s" affinity else affinity in
  let src =
    Printf.sprintf
      {|
      program r2
      integer n, i, j
      parameter (n = %d)
      real*8 a(n, n), b(n, n), s
%s
      do j = 1, n
        do i = 1, n
          a(i, j) = mod(i * 3 + j, 11)
          b(i, j) = mod(i + j * 5, 13)
        enddo
      enddo
c$doacross local(i, j)%s
      do j = 2, n-1
        do i = 2, n-1
          a(i, j) = b(i+%d, j+%d) + a(i, j) * 0.5
        enddo
      enddo
      s = 0.0
      do j = 1, n
        do i = 1, n
          s = s + a(i, j) * mod(i + j, 7)
        enddo
      enddo
      print *, s
      end
|}
      n dist_line clause oi oj
  in
  {
    src;
    label =
      Printf.sprintf "2d n=%d (%s,%s)%s offs=(%d,%d)%s" n (kind_to_src k1)
        (kind_to_src k2)
        (if reshape then " reshaped" else " regular")
        oi oj
        (if nest then " nest" else "");
  }

(* ------------------------------------------------------------------ *)

(* Each round's program must pass every leg of the differential driver,
   with fault plans, the chaos leg and the race sanitizer on; the round
   number is the case seed, which picks the flags leg. *)
let stencils gen count () =
  let rng = Random.State.make [| 0xd15c0; count |] in
  for round = 1 to count do
    let { src; label } = gen rng in
    let opts =
      { (Differ.default ~seed:round) with fault = true; race = true }
    in
    match Differ.run opts [ ("r.pf", src) ] with
    | Differ.Pass -> ()
    | v ->
        Alcotest.failf "%s [seed %d]: %s%s\n%s" label round (Differ.kind_of v)
          (match v with
          | Differ.Diverged { detail; _ } -> " (" ^ detail ^ ")"
          | Differ.Reject m | Differ.Fail m -> " (" ^ m ^ ")"
          | _ -> "")
          src
  done

(* ------------------------------------------------------------------ *)
(* Injected redistribution failures: the program must compute the same
   checksum whether the page migration succeeds, succeeds after retries,
   or falls back to the old placement — and the retry/fallback machinery
   must actually fire. *)

let redist_src =
  {|
      program rd
      integer n, i, it
      parameter (n = 1024)
      real*8 a(n), s
c$distribute a(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = mod(i * 11, 19)
      enddo
c$redistribute a(cyclic)
      do it = 1, 2
c$doacross local(i) affinity(i) = data(a(i))
        do i = 1, n
          a(i) = a(i) * 0.5 + 1.0
        enddo
      enddo
      s = 0.0
      do i = 1, n
        s = s + a(i)
      enddo
      print *, s
      end
|}

let redist_failures () =
  let prog =
    match
      Result.bind (Ddsm.compile_source ~fname:"rd.pf" redist_src) (fun o ->
          Ddsm.link [ o ])
    with
    | Ok (prog, _) -> prog
    | Error es ->
        Alcotest.failf "redist program refused: %s" (String.concat "; " es)
  in
  let go fault =
    let rt =
      Ddsm.make_rt ~heap_words:(1 lsl 18) ~machine_procs:8 ~fault ~nprocs:4 ()
    in
    match Ddsm.run prog ~rt ~bounds:true () with
    | Error d -> Alcotest.failf "redist run failed: %s" (Diag.to_string d)
    | Ok o -> (String.concat "|" o.Ddsm.Engine.prints, rt)
  in
  let clean_out, clean_rt = go Fault.none in
  Alcotest.(check int) "clean run retries nothing" 0 clean_rt.Rt.redist_retries;
  Alcotest.(check bool) "clean run moved pages" true (clean_rt.Rt.redist_pages > 0);
  (* two injected failures: the third attempt succeeds *)
  let retry_out, retry_rt = go (Fault.make ~redist_fail:2 ()) in
  Alcotest.(check string) "output unchanged by retries" clean_out retry_out;
  Alcotest.(check int) "two retries recorded" 2 retry_rt.Rt.redist_retries;
  Alcotest.(check int) "no fallback" 0 retry_rt.Rt.redist_fallbacks;
  Alcotest.(check int) "pages still moved" clean_rt.Rt.redist_pages
    retry_rt.Rt.redist_pages;
  (* persistent failure: every attempt fails, placement falls back *)
  let fb_out, fb_rt = go (Fault.make ~redist_fail:100 ()) in
  Alcotest.(check string) "output unchanged by fallback" clean_out fb_out;
  Alcotest.(check bool) "fallback recorded" true (fb_rt.Rt.redist_fallbacks > 0);
  Alcotest.(check int) "no pages moved on fallback" 0 fb_rt.Rt.redist_pages

let () =
  Alcotest.run "random-differential"
    [
      ( "stencils",
        [
          Alcotest.test_case "1-D programs" `Slow (stencils gen_1d 40);
          Alcotest.test_case "2-D programs" `Slow (stencils gen_2d 25);
        ] );
      ( "faults",
        [
          Alcotest.test_case "redistribution failures" `Quick redist_failures;
        ] );
    ]

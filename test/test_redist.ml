(* Tests for the redistribution engine: the closed-form schedule builder
   against a per-element owner-walk oracle, the round structure invariants,
   the portion_run clamp, atomicity under injected migration failures, the
   reshaped copy-then-install path, and the checked real->int element rule. *)

open Ddsm_dist
open Ddsm_machine
open Ddsm_runtime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let tiny ?(nprocs = 4) () : Config.t =
  {
    nprocs;
    procs_per_node = 2;
    page_bytes = 256;
    l1 = { size_bytes = 128; line_bytes = 32; assoc = 2; hit_cycles = 1 };
    l2 = { size_bytes = 512; line_bytes = 128; assoc = 2; hit_cycles = 10 };
    tlb_entries = 4;
    tlb_miss_cycles = 57;
    local_mem_cycles = 70;
    remote_base_cycles = 110;
    remote_per_hop_cycles = 12;
    mem_occupancy_cycles = 24;
    dirty_transfer_extra_cycles = 40;
    inval_cycles_per_sharer = 16;
    node_mem_bytes = 64 * 1024;
  }

let mk ?(nprocs = 4) ?fault () =
  Rt.create (tiny ~nprocs ()) ~policy:Pagetable.First_touch ~heap_words:65536
    ?fault ()

(* ------------------------------------------------------------------ *)
(* generators *)

let gen_kind =
  QCheck.Gen.(
    frequency
      [
        (3, return Kind.Block);
        (3, return Kind.Cyclic);
        (4, map (fun k -> Kind.Cyclic_k k) (int_range 1 6));
      ])

let arb_kind = QCheck.make ~print:(Format.asprintf "%a" Kind.pp) gen_kind

(* ------------------------------------------------------------------ *)
(* dim_pairs vs. a per-element owner walk *)

let prop_dim_pairs_oracle =
  QCheck.Test.make ~count:300 ~name:"dim_pairs = per-element owner walk"
    QCheck.(
      quad (int_range 1 80) (int_range 1 6) (int_range 1 6)
        (pair arb_kind arb_kind))
    (fun (extent, ps, pd, (ks, kd)) ->
      let ms = Dim_map.make ~extent ~procs:ps ks
      and md = Dim_map.make ~extent ~procs:pd kd in
      let tbl = Hashtbl.create 16 in
      for i = 0 to extent - 1 do
        let key = (Dim_map.owner ms i, Dim_map.owner md i) in
        Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      done;
      let expect =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare
      in
      Redist.dim_pairs ms md = expect)

(* ------------------------------------------------------------------ *)
(* build vs. a per-element owner walk over full layouts, incl. resizes *)

let walk_moves ~src ~dst extents =
  let tbl = Hashtbl.create 32 in
  let cross = ref 0 and total = ref 0 in
  let nd = Array.length extents in
  let idx = Array.make nd 0 in
  let rec go d =
    if d = nd then begin
      incr total;
      let s = Layout.owner src idx and t = Layout.owner dst idx in
      if s <> t then begin
        incr cross;
        Hashtbl.replace tbl (s, t)
          (1 + Option.value ~default:0 (Hashtbl.find_opt tbl (s, t)))
      end
    end
    else
      for i = 0 to extents.(d) - 1 do
        idx.(d) <- i;
        go (d + 1)
      done
  in
  go 0;
  ( !total,
    !cross,
    Hashtbl.fold
      (fun (s, t) w acc -> { Redist.src = s; dst = t; words = w } :: acc)
      tbl []
    |> List.sort compare )

let prop_build_oracle =
  QCheck.Test.make ~count:200 ~name:"build = per-element owner walk (1-D, resizable)"
    QCheck.(
      quad (int_range 1 70) (int_range 1 6) (int_range 1 6)
        (pair arb_kind arb_kind))
    (fun (n, ps, pd, (ks, kd)) ->
      let extents = [| n |] in
      let src = Layout.make ~extents ~kinds:[| ks |] ~nprocs:ps ()
      and dst = Layout.make ~extents ~kinds:[| kd |] ~nprocs:pd () in
      let s = Redist.build ~src ~dst in
      let total, cross, moves = walk_moves ~src ~dst extents in
      s.Redist.total_words = total
      && s.Redist.cross_words = cross
      && s.Redist.local_words = total - cross
      && List.sort compare s.Redist.moves = moves)

let prop_build_oracle_2d =
  QCheck.Test.make ~count:120 ~name:"build = per-element owner walk (2-D)"
    QCheck.(
      quad (pair (int_range 1 14) (int_range 1 12))
        (int_range 1 6) (int_range 1 6)
        (pair (pair arb_kind arb_kind) (pair arb_kind arb_kind)))
    (fun ((n1, n2), ps, pd, ((ka, kb), (kc, kd))) ->
      let extents = [| n1; n2 |] in
      let src = Layout.make ~extents ~kinds:[| ka; kb |] ~nprocs:ps ()
      and dst = Layout.make ~extents ~kinds:[| kc; kd |] ~nprocs:pd () in
      let s = Redist.build ~src ~dst in
      let total, cross, moves = walk_moves ~src ~dst extents in
      s.Redist.total_words = total
      && s.Redist.cross_words = cross
      && List.sort compare s.Redist.moves = moves)

(* ------------------------------------------------------------------ *)
(* round structure: <= 1 send and <= 1 receive per processor per round,
   rounds partition the moves, max_words is the round's largest transfer *)

let prop_round_structure =
  QCheck.Test.make ~count:200 ~name:"rounds: 1 send + 1 receive per proc, partition moves"
    QCheck.(
      quad (int_range 1 90) (int_range 1 8) (int_range 1 8)
        (pair arb_kind arb_kind))
    (fun (n, ps, pd, (ks, kd)) ->
      let extents = [| n |] in
      let src = Layout.make ~extents ~kinds:[| ks |] ~nprocs:ps ()
      and dst = Layout.make ~extents ~kinds:[| kd |] ~nprocs:pd () in
      let s = Redist.build ~src ~dst in
      let distinct f l = List.length (List.sort_uniq compare (List.map f l)) = List.length l in
      List.for_all
        (fun r ->
          distinct (fun m -> m.Redist.src) r.Redist.transfers
          && distinct (fun m -> m.Redist.dst) r.Redist.transfers
          && r.Redist.max_words
             = List.fold_left (fun a m -> max a m.Redist.words) 0 r.Redist.transfers)
        s.Redist.rounds
      && List.sort compare (List.concat_map (fun r -> r.Redist.transfers) s.Redist.rounds)
         = List.sort compare s.Redist.moves)

(* ------------------------------------------------------------------ *)
(* portion_run: clamped to the array tail, vs. a per-element reference *)

let prop_portion_run_clamped =
  QCheck.Test.make ~count:300 ~name:"portion_run = per-element reference, clamped at tail"
    QCheck.(pair (int_range 1 60) arb_kind)
    (fun (n, k) ->
      let rt = mk () in
      let a =
        Rt.declare_regular rt ~name:"A" ~elem:Darray.Real ~extents:[| n |]
          ~kinds:[| k |] ()
      in
      let m = Dim_map.make ~extent:n ~procs:(Rt.nprocs rt) k in
      let reference i0 =
        (* longest run of consecutive globals from i0 with the same owner
           and consecutive offsets, never past the array tail *)
        let o = Dim_map.owner m i0 and f = Dim_map.offset m i0 in
        let r = ref 1 in
        while
          i0 + !r < n
          && Dim_map.owner m (i0 + !r) = o
          && Dim_map.offset m (i0 + !r) = f + !r
        do
          incr r
        done;
        !r
      in
      List.for_all
        (fun i0 ->
          let run = Darray.portion_run a [| i0 + 1 |] in
          run = reference i0 && i0 + run <= n)
        (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* atomicity: a migration failure mid-plan must leave every page home
   untouched (the partial prefix is rolled back) and report the fallback *)

let page_homes rt a =
  let pb = (tiny ()).Config.page_bytes in
  List.concat_map
    (fun (lo, hi) ->
      let b0 = Heap.byte_of_word lo / pb and b1 = Heap.byte_of_word hi / pb in
      List.init (b1 - b0 + 1) (fun i ->
          let page = b0 + i in
          (page, Memsys.home_of_addr rt.Rt.mem (page * pb))))
    (Darray.word_ranges a)

let test_migrate_fail_atomic () =
  (* migrations fail from the 2nd on: every attempt's prefix must roll
     back, and after bounded retries the call falls back entirely *)
  let fault = Ddsm_check.Fault.make ~migrate_fail:2 () in
  let rt = mk ~fault () in
  let a =
    Rt.declare_regular rt ~name:"A" ~elem:Darray.Real ~extents:[| 64; 8 |]
      ~kinds:[| Kind.Star; Kind.Block |] ()
  in
  let before = page_homes rt a in
  (match Rt.redistribute rt ~name:"A" ~kinds:[| Kind.Star; Kind.Cyclic |] () with
  | Error m -> Alcotest.failf "expected fallback, got error: %s" m
  | Ok { Rt.fell_back; retries; moved; _ } ->
      check_bool "fell back to old placement" true fell_back;
      (* the retry rule: a fallback reports all 3 failed attempts *)
      check_int "every attempt failed" 3 retries;
      check_int "nothing moved" 0 moved);
  (* migrate-fail=2: the first attempt's 1st migration goes through and
     its 2nd is the first to fail; each retry fails at its first. The
     rollback's moves are not counted. *)
  check_int "migrations counted" 4
    (Ddsm_check.Fault.count (Memsys.faults rt.Rt.mem)
       Ddsm_check.Fault.Migration);
  Alcotest.(check (list (pair int (option int))))
    "page homes unchanged after failed attempts" before (page_homes rt a);
  check_int "audit clean" 0 (List.length (Rt.audit rt))

let test_migrate_ok_when_under_threshold () =
  (* high threshold: the same plan goes through and homes follow *)
  let fault = Ddsm_check.Fault.make ~migrate_fail:10_000 () in
  let rt = mk ~fault () in
  ignore
    (Rt.declare_regular rt ~name:"A" ~elem:Darray.Real ~extents:[| 64; 8 |]
       ~kinds:[| Kind.Star; Kind.Block |] ());
  match Rt.redistribute rt ~name:"A" ~kinds:[| Kind.Star; Kind.Cyclic |] () with
  | Error m -> Alcotest.failf "unexpected error: %s" m
  | Ok { Rt.fell_back; _ } -> check_bool "no fallback" false fell_back

(* ------------------------------------------------------------------ *)
(* reshaped copy-then-install: values survive kind changes and onto-grid
   resizes; the descriptor reflects the new layout; canaries stay intact *)

let test_reshaped_rcu_preserves_values () =
  let rt = mk () in
  let n = 37 in
  let a =
    Rt.declare_reshaped rt ~name:"R" ~elem:Darray.Real ~extents:[| n |]
      ~kinds:[| Kind.Block |] ()
  in
  for i = 1 to n do
    Rt.write rt ~addr:(Darray.word_addr a [| i |]) ~elem:Darray.Real
      (float_of_int (i * i))
  done;
  let readback msg =
    for i = 1 to n do
      check_bool msg true
        (Rt.read rt ~addr:(Darray.word_addr a [| i |]) ~elem:Darray.Real
        = float_of_int (i * i))
    done
  in
  (match Rt.redistribute rt ~name:"R" ~kinds:[| Kind.Cyclic_k 5 |] () with
  | Error m -> Alcotest.failf "reshaped redistribute failed: %s" m
  | Ok { Rt.words; _ } -> check_bool "some words moved" true (words > 0));
  readback "values after cyclic(5)";
  (* onto-grid resize: shrink to 2 processors, then grow back to 4 *)
  (match Rt.redistribute rt ~name:"R" ~kinds:[| Kind.Cyclic_k 3 |] ~procs:2 () with
  | Error m -> Alcotest.failf "shrink failed: %s" m
  | Ok _ -> ());
  check_int "shrunk grid" 2 (Darray.nprocs a);
  readback "values after shrink to 2 procs";
  (match Rt.redistribute rt ~name:"R" ~kinds:[| Kind.Block |] ~procs:64 () with
  | Error m -> Alcotest.failf "grow failed: %s" m
  | Ok _ -> ());
  check_int "regrown grid clamped to job procs" 4 (Darray.nprocs a);
  readback "values after regrow";
  check_int "audit clean after RCU installs" 0 (List.length (Rt.audit rt))

(* Reshaped relayouts in 1-3 dimensions: a distinct value in every
   element, one or two redistributions (any kinds, [*] included, random
   onto weights and grid resizes) on 1-16 job processors, and every
   element read back through [Darray.word_addr] -- so the storage-box
   strides of the old and the new layout both take part -- with a clean
   audit. Two elements sharing a word would lose one value. *)

type relayout = {
  r_nprocs : int;
  r_elem : Darray.elem;
  r_extents : int array;
  r_dists : (Kind.t array * int array option * int option) list;
      (** the declared distribution first, then each redistribution:
          kinds, onto weights, [~procs] resize (unused on the first) *)
}

let gen_any_kind =
  QCheck.Gen.(frequency [ (1, return Kind.Star); (4, gen_kind) ])

let gen_relayout =
  QCheck.Gen.(
    let* nd = int_range 1 3 in
    let emax = [| 40; 12; 6 |].(nd - 1) in
    let* r_extents = array_size (return nd) (int_range 1 emax) in
    let gen_dist =
      let* kinds = array_size (return nd) gen_any_kind in
      let ndist =
        Array.fold_left
          (fun n k -> if Kind.is_distributed k then n + 1 else n)
          0 kinds
      in
      let* onto =
        if ndist = 0 then return None
        else opt (array_size (return ndist) (int_range 1 4))
      in
      let* procs = opt (int_range 1 20) in
      return (kinds, onto, procs)
    in
    let* r_dists = list_size (int_range 2 3) gen_dist in
    let* r_nprocs = int_range 1 16 in
    let* r_elem = oneofl [ Darray.Real; Darray.Int ] in
    return { r_nprocs; r_elem; r_extents; r_dists })

let print_relayout r =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "{nprocs=%d; %s; extents=(%s); dists=[%s]}" r.r_nprocs
    (match r.r_elem with Darray.Real -> "real" | Darray.Int -> "int")
    (ints r.r_extents)
    (String.concat "; "
       (List.map
          (fun (kinds, onto, procs) ->
            Printf.sprintf "(%s)%s%s"
              (String.concat ","
                 (Array.to_list (Array.map (Format.asprintf "%a" Kind.pp) kinds)))
              (match onto with None -> "" | Some w -> " onto(" ^ ints w ^ ")")
              (match procs with
              | None -> ""
              | Some p -> Printf.sprintf " procs=%d" p))
          r.r_dists))

(* every Fortran index tuple of the extents, first dimension fastest *)
let all_indices extents =
  let n = Array.fold_left ( * ) 1 extents in
  List.init n (fun lin ->
      let rest = ref lin in
      Array.map
        (fun e ->
          let i = !rest mod e in
          rest := !rest / e;
          i + 1)
        extents)

let prop_reshaped_relayout_values =
  QCheck.Test.make ~count:200
    ~name:"reshaped relayouts keep every value (1-3 dims)"
    (QCheck.make ~print:print_relayout gen_relayout)
    (fun r ->
      let rt = mk ~nprocs:r.r_nprocs () in
      let kinds, onto, _ = List.hd r.r_dists in
      let a =
        Rt.declare_reshaped rt ~name:"R" ~elem:r.r_elem ~extents:r.r_extents
          ~kinds ?onto ()
      in
      let idxs = all_indices r.r_extents in
      let value k = float_of_int ((7 * k) + 3) in
      List.iteri
        (fun k idx ->
          Rt.write rt ~addr:(Darray.word_addr a idx) ~elem:r.r_elem (value k))
        idxs;
      List.for_all
        (fun (kinds, onto, procs) ->
          match Rt.redistribute rt ~name:"R" ~kinds ?onto ?procs () with
          | Error m -> QCheck.Test.fail_reportf "redistribute: %s" m
          | Ok { Rt.fell_back = true; _ } ->
              QCheck.Test.fail_report "fell back without a fault plan"
          | Ok _ ->
              List.for_all Fun.id
                (List.mapi
                   (fun k idx ->
                     Rt.read rt ~addr:(Darray.word_addr a idx) ~elem:r.r_elem
                     = value k)
                   idxs))
        (List.tl r.r_dists)
      && Rt.audit rt = [])

(* ------------------------------------------------------------------ *)
(* host allocation of reshaped addressing and relayouts: the storage
   record carries the layout and its storage box, so an element's word
   address allocates only its 0-based index tuple (3 words in 2 dims) and
   a relayout's copy allocates nothing per element. What a relayout still
   allocates, about 1.16 words per element copied for real and integer
   elements alike with OCaml 5.1.1, is the {!Redist} schedule it builds;
   the bound sits about 10% above it. *)

let mk_origin ~nprocs =
  Rt.create (Config.origin2000 ~nprocs) ~policy:Pagetable.First_touch
    ~heap_words:(1 lsl 20) ()

let test_word_addr_allocation () =
  let rt = mk_origin ~nprocs:16 in
  let a =
    Rt.declare_reshaped rt ~name:"A" ~elem:Darray.Real ~extents:[| 96; 96 |]
      ~kinds:[| Kind.Block; Kind.Cyclic_k 5 |] ()
  in
  let idx = [| 0; 0 |] in
  let sum = ref 0 in
  let before = Gc.minor_words () in
  for j = 1 to 96 do
    for i = 1 to 96 do
      idx.(0) <- i;
      idx.(1) <- j;
      sum := !sum + Darray.word_addr a idx
    done
  done;
  let per = (Gc.minor_words () -. before) /. float_of_int (96 * 96) in
  check_bool "addresses computed" true (!sum > 0);
  check_bool
    (Printf.sprintf "word_addr: %.2f minor words per call (bound 3)" per)
    true (per <= 3.0)

let test_relayout_allocation () =
  List.iter
    (fun (elem, what) ->
      let rt = mk_origin ~nprocs:16 in
      let extents = [| 40; 30; 20 |] in
      let _ =
        Rt.declare_reshaped rt ~name:"R" ~elem ~extents
          ~kinds:[| Kind.Block; Kind.Cyclic; Kind.Star |] ()
      in
      let kinds =
        [| [| Kind.Cyclic; Kind.Block; Kind.Star |];
           [| Kind.Block; Kind.Cyclic; Kind.Star |] |]
      in
      let relayouts = 6 in
      let before = Gc.minor_words () in
      for r = 0 to relayouts - 1 do
        match Rt.redistribute rt ~name:"R" ~kinds:kinds.(r mod 2) () with
        | Ok { Rt.fell_back = false; _ } -> ()
        | Ok _ -> Alcotest.fail "fell back without a fault plan"
        | Error m -> Alcotest.failf "redistribute: %s" m
      done;
      let elements = relayouts * Array.fold_left ( * ) 1 extents in
      let per = (Gc.minor_words () -. before) /. float_of_int elements in
      check_bool
        (Printf.sprintf
           "%s relayout: %.3f minor words per element copied (bound 1.28)"
           what per)
        true (per <= 1.28))
    [ (Darray.Real, "real"); (Darray.Int, "int") ]

(* ------------------------------------------------------------------ *)
(* checked real->int element conversion *)

let test_int_of_real () =
  Alcotest.(check (option int)) "3.7 truncates" (Some 3) (Rt.int_of_real 3.7);
  Alcotest.(check (option int)) "-2.5 truncates" (Some (-2)) (Rt.int_of_real (-2.5));
  Alcotest.(check (option int)) "0" (Some 0) (Rt.int_of_real 0.0);
  Alcotest.(check (option int)) "1e18 fits" (Some 1_000_000_000_000_000_000)
    (Rt.int_of_real 1e18);
  Alcotest.(check (option int)) "NaN rejected" None (Rt.int_of_real Float.nan);
  Alcotest.(check (option int)) "+inf rejected" None (Rt.int_of_real Float.infinity);
  Alcotest.(check (option int)) "2^62 rejected" None (Rt.int_of_real 4.6116860184273879e18);
  Alcotest.(check (option int)) "-1e19 rejected" None (Rt.int_of_real (-1e19));
  check_bool "Rt.write Int raises on NaN" true
    (let rt = mk () in
     let a =
       Rt.declare_plain rt ~name:"I" ~elem:Darray.Int ~extents:[| 4 |] ()
     in
     try
       Rt.write rt ~addr:(Darray.word_addr a [| 1 |]) ~elem:Darray.Int Float.nan;
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)

let qsuite name props =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) props)

let () =
  Alcotest.run "redist"
    [
      qsuite "schedule.oracle"
        [ prop_dim_pairs_oracle; prop_build_oracle; prop_build_oracle_2d ];
      qsuite "schedule.rounds" [ prop_round_structure ];
      qsuite "portion_run" [ prop_portion_run_clamped ];
      ( "atomicity",
        [
          Alcotest.test_case "migrate-fail rolls back and falls back" `Quick
            test_migrate_fail_atomic;
          Alcotest.test_case "high threshold passes through" `Quick
            test_migrate_ok_when_under_threshold;
        ] );
      ( "reshaped-rcu",
        [
          Alcotest.test_case "values survive redistribute + resize" `Quick
            test_reshaped_rcu_preserves_values;
          QCheck_alcotest.to_alcotest ~long:false prop_reshaped_relayout_values;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "word_addr at most 3 words per call" `Quick
            test_word_addr_allocation;
          Alcotest.test_case "relayout at most 2 words per element" `Quick
            test_relayout_allocation;
        ] );
      ( "int-elements",
        [ Alcotest.test_case "checked real->int rule" `Quick test_int_of_real ] );
    ]

(* Differential oracle for the flat-table fast path (DESIGN.md "Simulator
   performance"): random operation sequences must make the flat [Pagetable]
   and [Directory] bit-identical to their Hashtbl-based reference
   implementations ([Pagetable_ref]/[Directory_ref]) on every observable,
   the indexed [Tlb] hit, miss and evict exactly as the scanning one it
   replaced ([Tlb_ref]), the scheduler's calendar run queue [Runq] pop
   exactly what the
   binary heap it replaced ([Heapq_ref]) pops, and the sanitizer report
   exactly what its Hashtbl-shadow predecessor ([Sanitize_ref]) reports on
   random event streams and on every example program.
   Plus determinism tests for the [Jobs] domain pool: a parallel map must
   return exactly what the sequential one does, including which exception
   is re-raised, and a pin that [Memsys.access] allocates nothing. *)

module Config = Ddsm_machine.Config
module Pagetable = Ddsm_machine.Pagetable
module Directory = Ddsm_machine.Directory
module Tlb = Ddsm_machine.Tlb
module Bitset = Ddsm_machine.Bitset
module Runq = Ddsm_exec.Runq
module Jobs = Ddsm_util.Jobs
module Memsys = Ddsm_machine.Memsys
module Rt = Ddsm_runtime.Rt
module Sanitize = Ddsm_sanitize.Sanitize
module Json = Ddsm_report.Json
module Ddsm = Ddsm_core.Ddsm

let rng seed = Random.State.make [| 0xDD5A; seed |]

(* ------------------------------------------------------------------ *)
(* pagetable oracle *)

type pt_op =
  | Home of int * int (* page, faulting node *)
  | Place of int * int (* page, node *)
  | Migrate of int * int (* page (forced placed first), node *)
  | Home_opt of int
  | Frame of int (* page, forced placed first *)

let gen_pt_op rand nnodes npages =
  let module G = QCheck.Gen in
  let page = G.generate1 ~rand (G.int_range 0 (npages - 1)) in
  let node = G.generate1 ~rand (G.int_range 0 (nnodes - 1)) in
  match G.generate1 ~rand (G.int_range 0 4) with
  | 0 -> Home (page, node)
  | 1 -> Place (page, node)
  | 2 -> Migrate (page, node)
  | 3 -> Home_opt page
  | _ -> Frame page

let pp_pt_op = function
  | Home (p, n) -> Printf.sprintf "home %d @%d" p n
  | Place (p, n) -> Printf.sprintf "place %d on %d" p n
  | Migrate (p, n) -> Printf.sprintf "migrate %d to %d" p n
  | Home_opt p -> Printf.sprintf "home_opt %d" p
  | Frame p -> Printf.sprintf "frame %d" p

(* apply one op to both tables; return both observations as strings *)
let apply_pt (flat, ref_) op =
  match op with
  | Home (page, faulting_node) ->
      ( string_of_int (Pagetable.home flat ~page ~faulting_node),
        string_of_int (Pagetable_ref.home ref_ ~page ~faulting_node) )
  | Place (page, node) ->
      Pagetable.place flat ~page ~node;
      Pagetable_ref.place ref_ ~page ~node;
      ("", "")
  | Migrate (page, node) ->
      (* force placement so migrate acts on a placed page in both *)
      ignore (Pagetable.home flat ~page ~faulting_node:0);
      ignore (Pagetable_ref.home ref_ ~page ~faulting_node:0);
      Pagetable.migrate flat ~page ~node;
      Pagetable_ref.migrate ref_ ~page ~node;
      ("", "")
  | Home_opt page ->
      let s = function None -> "-" | Some n -> string_of_int n in
      (s (Pagetable.home_opt flat ~page), s (Pagetable_ref.home_opt ref_ ~page))
  | Frame page ->
      ignore (Pagetable.home flat ~page ~faulting_node:0);
      ignore (Pagetable_ref.home ref_ ~page ~faulting_node:0);
      let f = Pagetable.frame flat ~page
      and fr = Pagetable_ref.frame ref_ ~page in
      ( Printf.sprintf "%d@%d" f (Pagetable.node_of_frame flat f),
        Printf.sprintf "%d@%d" fr (Pagetable_ref.node_of_frame ref_ fr) )

let pt_summary_flat t nnodes =
  let per =
    List.init nnodes (fun n -> string_of_int (Pagetable.pages_on_node t ~node:n))
  in
  Printf.sprintf "placed=%d per-node=%s" (Pagetable.placed_pages t)
    (String.concat "," per)

let pt_summary_ref t nnodes =
  let per =
    List.init nnodes (fun n ->
        string_of_int (Pagetable_ref.pages_on_node t ~node:n))
  in
  Printf.sprintf "placed=%d per-node=%s" (Pagetable_ref.placed_pages t)
    (String.concat "," per)

let test_pagetable_oracle () =
  for seed = 1 to 60 do
    let rand = rng seed in
    let module G = QCheck.Gen in
    let nprocs = G.generate1 ~rand (G.oneofl [ 2; 4; 8 ]) in
    let policy =
      G.generate1 ~rand
        (G.oneofl [ Pagetable.First_touch; Pagetable.Round_robin ])
    in
    let cfg = Config.scaled ~nprocs ~factor:64 () in
    let nnodes = max 1 (nprocs / 2) in
    (* enough pages to overflow nodes and exercise the spill path *)
    let npages = G.generate1 ~rand (G.int_range 32 768) in
    let nops = G.generate1 ~rand (G.int_range 50 400) in
    let flat = Pagetable.create cfg policy
    and ref_ = Pagetable_ref.create cfg policy in
    for k = 1 to nops do
      let op = gen_pt_op rand nnodes npages in
      let a, b = apply_pt (flat, ref_) op in
      if a <> b then
        Alcotest.failf "seed %d op %d (%s): flat=%S ref=%S" seed k (pp_pt_op op)
          a b
    done;
    let a = pt_summary_flat flat nnodes and b = pt_summary_ref ref_ nnodes in
    if a <> b then Alcotest.failf "seed %d summary: flat=%S ref=%S" seed a b
  done

(* ------------------------------------------------------------------ *)
(* directory oracle *)

type dir_op =
  | Set_exclusive of int * int
  | Add_sharer of int * int
  | Drop of int * int
  | State of int
  | Sharers_except of int * int

let gen_line rand =
  let module G = QCheck.Gen in
  (* mix dense small ids with sparse page-strided ones: collisions and
     growth both get exercised *)
  if G.generate1 ~rand G.bool then G.generate1 ~rand (G.int_range 0 63)
  else
    (G.generate1 ~rand (G.int_range 0 4096) * 512)
    + G.generate1 ~rand (G.int_range 0 7)

let gen_dir_op rand nprocs =
  let module G = QCheck.Gen in
  let line = gen_line rand in
  let proc = G.generate1 ~rand (G.int_range 0 (nprocs - 1)) in
  match G.generate1 ~rand (G.int_range 0 4) with
  | 0 -> Set_exclusive (line, proc)
  | 1 -> Add_sharer (line, proc)
  | 2 -> Drop (line, proc)
  | 3 -> State line
  | _ -> Sharers_except (line, proc)

let pp_dir_op = function
  | Set_exclusive (l, p) -> Printf.sprintf "set_exclusive %d <- %d" l p
  | Add_sharer (l, p) -> Printf.sprintf "add_sharer %d + %d" l p
  | Drop (l, p) -> Printf.sprintf "drop %d - %d" l p
  | State l -> Printf.sprintf "state %d" l
  | Sharers_except (l, p) -> Printf.sprintf "iter_sharers_except %d \\ %d" l p

(* the flat directory's sharers of [line] but [proc], in the iterator's
   own order (highest first), checked against the count it returns *)
let flat_sharers t ~line ~proc =
  let acc = ref [] in
  let n =
    Directory.iter_sharers_except t ~line ~proc (fun acc ~line:_ q -> acc := q :: !acc)
      acc
  in
  let l = List.rev !acc in
  if n <> List.length l then
    Alcotest.failf "line %d: iter_sharers_except visited %d, returned %d" line
      (List.length l) n;
  l

let canon_flat_state t line =
  match Directory.state t ~line with
  | Directory.Uncached -> "U"
  | Directory.Exclusive p -> Printf.sprintf "E%d" p
  | Directory.Shared _ ->
      let l = List.sort compare (flat_sharers t ~line ~proc:(-1)) in
      "S" ^ String.concat "," (List.map string_of_int l)

let canon_ref_state t line =
  match Directory_ref.state t ~line with
  | Directory_ref.Uncached -> "U"
  | Directory_ref.Exclusive p -> Printf.sprintf "E%d" p
  | Directory_ref.Shared _ ->
      let l =
        List.sort compare (Directory_ref.sharers_except t ~line ~proc:(-1))
      in
      "S" ^ String.concat "," (List.map string_of_int l)

let apply_dir (flat, ref_) op =
  match op with
  | Set_exclusive (line, owner) ->
      Directory.set_exclusive flat ~line ~owner;
      Directory_ref.set_exclusive ref_ ~line ~owner;
      (* the fast-path query must agree with the full state *)
      let o = Directory.exclusive_owner flat ~line in
      ((if o = owner then "" else Printf.sprintf "owner=%d" o), "")
  | Add_sharer (line, proc) ->
      Directory.add_sharer flat ~line ~proc;
      Directory_ref.add_sharer ref_ ~line ~proc;
      ("", "")
  | Drop (line, proc) ->
      Directory.drop flat ~line ~proc;
      Directory_ref.drop ref_ ~line ~proc;
      ("", "")
  | State line -> (canon_flat_state flat line, canon_ref_state ref_ line)
  | Sharers_except (line, proc) ->
      (* the reference set, highest first, against the iterator's order *)
      let s l = String.concat "," (List.map string_of_int l) in
      ( s (flat_sharers flat ~line ~proc),
        s
          (List.sort
             (fun a b -> compare b a)
             (Directory_ref.sharers_except ref_ ~line ~proc)) )

let test_directory_oracle () =
  for seed = 1 to 60 do
    let rand = rng (1000 + seed) in
    let module G = QCheck.Gen in
    let nprocs = G.generate1 ~rand (G.oneofl [ 2; 8; 64; 80 ]) in
    let nops = G.generate1 ~rand (G.int_range 100 1500) in
    let flat = Directory.create ~nprocs
    and ref_ = Directory_ref.create ~nprocs in
    let touched = Hashtbl.create 64 in
    for k = 1 to nops do
      let op = gen_dir_op rand nprocs in
      (match op with
      | Set_exclusive (l, _) | Add_sharer (l, _) -> Hashtbl.replace touched l ()
      | _ -> ());
      let a, b = apply_dir (flat, ref_) op in
      if a <> b then
        Alcotest.failf "seed %d op %d (%s): flat=%S ref=%S" seed k
          (pp_dir_op op) a b
    done;
    (* final sweep: every line ever cached agrees, plus the allocation-free
       queries agree with the materialized state *)
    Hashtbl.iter
      (fun line () ->
        let a = canon_flat_state flat line
        and b = canon_ref_state ref_ line in
        if a <> b then Alcotest.failf "seed %d line %d: flat=%S ref=%S" seed line a b;
        let unc = Directory.is_uncached flat ~line in
        if unc <> (a = "U") then
          Alcotest.failf "seed %d line %d: is_uncached=%b state=%S" seed line
            unc a)
      touched
  done

(* ------------------------------------------------------------------ *)
(* run-queue oracle *)

(* Push keys are the last popped key plus a delta: equal (FIFO ties),
   small, around the 4096-cycle ring window (so entries start in the
   overflow list and move into the ring as the floor advances) or far
   beyond it. A push right after a pop may land below everything still
   queued, as fork children and joins do in the engine. *)
type rq_op =
  | Push of int (* delta above the last popped key *)
  | Peek
  | Pop
  | Drain
  | Refill of int list (* one push per delta *)

let gen_delta =
  QCheck.Gen.(
    frequency
      [
        (3, return 0);
        (6, int_range 1 64);
        (2, int_range 4000 4200);
        (1, oneofl [ 4095; 4096; 4097 ]);
        (1, map (fun d -> 8192 + d) (int_range (-2) 2));
        (1, map (fun d -> (1 lsl 40) + d) (int_range 0 3));
      ])

let gen_rq_op =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun d -> Push d) gen_delta);
        (3, return Peek);
        (6, return Pop);
        (1, return Drain);
        (1, map (fun ds -> Refill ds) (list_size (int_range 1 200) gen_delta));
      ])

let pp_rq_op = function
  | Push d -> Printf.sprintf "push +%d" d
  | Peek -> "peek"
  | Pop -> "pop"
  | Drain -> "drain"
  | Refill ds -> Printf.sprintf "refill(%d)" (List.length ds)

(* drive both queues with one op list; any disagreement in [min_key],
   [size] or a popped payload (a unique push number) fails the case. Only
   [Peek] asks the run queue for its minimum, so pushes and pops also run
   while its cached minimum is stale. *)
let runq_agrees ops =
  let rq = Runq.create () and hq = Heapq_ref.create () in
  let last_pop = ref 0 and stamp = ref 0 in
  let same what a b =
    if a <> b then
      QCheck.Test.fail_reportf "%s: runq=%d heap=%d (last pop %d)" what a b
        !last_pop
  in
  let peek () =
    same "min_key" (Runq.min_key rq) (Heapq_ref.min_key hq);
    same "size" (Runq.size rq) (Heapq_ref.size hq)
  in
  let push d =
    let key = !last_pop + d in
    incr stamp;
    Runq.push rq ~key !stamp;
    Heapq_ref.push hq ~key !stamp
  in
  let pop () =
    if Heapq_ref.size hq > 0 then begin
      last_pop := Heapq_ref.min_key hq;
      same "popped" (Runq.pop_value rq) (Heapq_ref.pop_value hq)
    end
  in
  List.iter
    (function
      | Push d -> push d
      | Peek -> peek ()
      | Pop -> pop ()
      | Drain ->
          while Heapq_ref.size hq > 0 do
            pop ()
          done;
          peek ()
      | Refill ds -> List.iter push ds)
    ops;
  true

let prop_runq_oracle =
  QCheck.Test.make ~count:300 ~name:"runq = heap reference"
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_rq_op ops))
       QCheck.Gen.(list_size (int_range 1 400) gen_rq_op))
    runq_agrees

let drain_runq rq =
  let rec go acc =
    if Runq.size rq = 0 then List.rev acc
    else
      let v = Runq.pop_value rq in
      go (v :: acc)
  in
  go []

let test_runq_fifo_ties () =
  let q = Runq.create () in
  List.iter (fun v -> Runq.push q ~key:5 v) [ "a"; "b"; "c"; "d" ];
  Runq.push q ~key:1 "first";
  Runq.push q ~key:9 "last";
  Alcotest.(check string)
    "sorted, FIFO within equal keys" "first,a,b,c,d,last"
    (String.concat "," (drain_runq q))

let test_runq_push_below_pop () =
  let q = Runq.create () in
  Runq.push q ~key:10 "a";
  Runq.push q ~key:30 "b";
  ignore (Runq.pop_value q);
  Runq.push q ~key:10 "at the last pop";
  Alcotest.check_raises "below the last pop"
    (Invalid_argument "Runq.push: key below the last popped key") (fun () ->
      Runq.push q ~key:9 "c");
  Alcotest.(check (list string))
    "queue unchanged by the rejected push" [ "at the last pop"; "b" ]
    (drain_runq q)

(* the engine's fast-continue check peeks, and fork children and joins then
   push below the queued minimum: a peek must not raise the floor *)
let test_runq_peek_keeps_floor () =
  let q = Runq.create () in
  Runq.push q ~key:100 "start";
  ignore (Runq.pop_value q);
  Runq.push q ~key:5000 "far";
  Runq.push q ~key:400 "near";
  Alcotest.(check int) "peek" 400 (Runq.min_key q);
  Runq.push q ~key:200 "below the queued minimum";
  Runq.push q ~key:100 "at the last pop";
  Alcotest.(check int) "new minimum" 100 (Runq.min_key q);
  Alcotest.(check (list string))
    "pop order"
    [ "at the last pop"; "below the queued minimum"; "near"; "far" ]
    (drain_runq q)

(* ------------------------------------------------------------------ *)
(* sanitizer oracle *)

(* everything a caller can read from a sanitizer, as one string *)
let san_view ~races ~false_sharing ~dropped ~is_clean ~report_json ~pp s =
  let reps l = String.concat "\n" (List.map (fun f -> f ()) l) in
  Printf.sprintf "races:\n%s\nsharing:\n%s\ndropped=%d clean=%b\n%s\n%s"
    (reps (races s)) (reps (false_sharing s)) (dropped s) (is_clean s)
    (Json.to_string (report_json s))
    (Format.asprintf "%a" pp s)

let view_new =
  let one (r : Sanitize.report) () =
    Printf.sprintf "%s %d %s p%d %b %s p%d %b %s"
      (Sanitize.kind_name r.rep_kind) r.rep_addr r.rep_array r.rep_first_proc
      r.rep_first_write r.rep_first_region r.rep_second_proc
      r.rep_second_write r.rep_second_region
  in
  san_view
    ~races:(fun s -> List.map one (Sanitize.races s))
    ~false_sharing:(fun s -> List.map one (Sanitize.false_sharing s))
    ~dropped:Sanitize.dropped ~is_clean:Sanitize.is_clean
    ~report_json:Sanitize.report_json ~pp:Sanitize.pp_report

let view_ref =
  let one (r : Sanitize_ref.report) () =
    Printf.sprintf "%s %d %s p%d %b %s p%d %b %s"
      (Sanitize_ref.kind_name r.rep_kind) r.rep_addr r.rep_array
      r.rep_first_proc r.rep_first_write r.rep_first_region r.rep_second_proc
      r.rep_second_write r.rep_second_region
  in
  san_view
    ~races:(fun s -> List.map one (Sanitize_ref.races s))
    ~false_sharing:(fun s -> List.map one (Sanitize_ref.false_sharing s))
    ~dropped:Sanitize_ref.dropped ~is_clean:Sanitize_ref.is_clean
    ~report_json:Sanitize_ref.report_json ~pp:Sanitize_ref.pp_report

let access_ev ~proc ~addr ~write : Memsys.access_event =
  {
    Memsys.ev_proc = proc;
    ev_addr = addr;
    ev_write = write;
    ev_now = 0;
    ev_tlb = 0;
    ev_hit = 1;
    ev_local = 0;
    ev_remote = 0;
    ev_contention = 0;
    ev_coherence = 0;
    ev_tlb_flushed = false;
  }

(* An event stream shaped like the engine's: serial accesses by processor
   0, forks of width 1..nprocs, accesses by the region's workers (rarely
   one beyond the sanitizer's processors), barrier releases of random
   subsets of the workers (some outside any region), allocations that
   leave gaps unattributed, and events that carry no ordering.
   Addresses mix a handful of hot words (same-word races, read-vector
   promotion) with a small window (line and page false sharing). Region
   labels come from a pool of 2 to 120; a third of the time the label is a
   fresh copy of its pooled string, so equal labels are not always the same
   string. *)
let gen_san_stream rand ~nprocs ~nevents =
  let pick lo hi = QCheck.Gen.(generate1 ~rand (int_range lo hi)) in
  let nlabels = QCheck.Gen.(generate1 ~rand (oneofl [ 2; 6; 120 ])) in
  let labels = Array.init nlabels (fun i -> Printf.sprintf "sub%d:%d" (i mod 5) i) in
  let label () =
    let l = labels.(pick 0 (nlabels - 1)) in
    if pick 0 2 = 0 then String.init (String.length l) (String.get l) else l
  in
  let hot = Array.init (pick 1 8) (fun _ -> pick 0 511) in
  let window = pick 8 2048 in
  let addr () =
    let w = if pick 0 1 = 0 then hot.(pick 0 (Array.length hot - 1)) else pick 0 window in
    (w * 8) + if pick 0 15 = 0 then pick 1 7 else 0
  in
  let alloc () =
    let lo = pick 0 window in
    Rt.Alloc
      {
        name = [| "a"; "b"; "c"; "d" |].(pick 0 3);
        word_ranges = [ (lo, lo + pick (-1) 300); (lo + 400, lo + 400 + pick 0 50) ];
      }
  in
  let in_par = ref false and width = ref 0 and now = ref 0 in
  let worker () =
    if not !in_par then 0
    else if pick 0 49 = 0 then nprocs
    else pick 0 (!width - 1)
  in
  let ev () =
    incr now;
    let now = !now in
    match pick 0 99 with
    | n when n < 3 ->
        if !in_par then begin
          in_par := false;
          Rt.Join { region = label (); proc = 0; now }
        end
        else begin
          in_par := true;
          width := pick 1 nprocs;
          Rt.Fork { region = label (); nprocs = !width; proc = 0; now }
        end
    | n when n < 9 ->
        let procs = List.init (pick 0 4) (fun _ -> worker ()) in
        Rt.Barrier { procs = List.sort_uniq compare procs; now }
    | n when n < 10 ->
        let result =
          { Rt.moved = 1; words = 8; rounds = 1; round_words = 8; retries = 0;
            fell_back = false }
        in
        Rt.Redistribute { array = "a"; result; proc = worker (); now }
    | n when n < 11 -> alloc ()
    | n when n < 12 -> Rt.Mark { mark = Rt.Run_begin; proc = 0; now }
    | _ ->
        Rt.Access
          { region = label ();
            ev = access_ev ~proc:(worker ()) ~addr:(addr ()) ~write:(pick 0 2 = 0) }
  in
  List.init (pick 0 3) (fun _ -> alloc ()) @ List.init nevents (fun _ -> ev ())

let test_sanitize_oracle_streams () =
  let dropped = ref 0 and races = ref 0 and sharing = ref 0 in
  for seed = 1 to 150 do
    let rand = rng (2000 + seed) in
    let nprocs = QCheck.Gen.(generate1 ~rand (oneofl [ 1; 2; 3; 4; 8; 32 ])) in
    let line_bytes = QCheck.Gen.(generate1 ~rand (oneofl [ 16; 32; 128 ])) in
    let page_bytes = line_bytes * QCheck.Gen.(generate1 ~rand (oneofl [ 1; 4; 16 ])) in
    let nevents = QCheck.Gen.(generate1 ~rand (int_range 50 4000)) in
    let flat = Sanitize.create ~nprocs ~line_bytes ~page_bytes ()
    and ref_ = Sanitize_ref.create ~nprocs ~line_bytes ~page_bytes () in
    List.iteri
      (fun k e ->
        Sanitize.observe flat e;
        Sanitize_ref.observe ref_ e;
        if k mod 250 = 0 then begin
          let a = view_new flat and b = view_ref ref_ in
          if a <> b then
            Alcotest.failf "seed %d after event %d:\nflat:\n%s\nref:\n%s" seed k a b
        end)
      (gen_san_stream rand ~nprocs ~nevents);
    let a = view_new flat and b = view_ref ref_ in
    if a <> b then Alcotest.failf "seed %d at the end:\nflat:\n%s\nref:\n%s" seed a b;
    if Sanitize.dropped flat > 0 then incr dropped;
    if Sanitize.races flat <> [] then incr races;
    if Sanitize.false_sharing flat <> [] then incr sharing
  done;
  (* the streams reach every report path, the cap included *)
  Alcotest.(check bool)
    (Printf.sprintf "coverage: %d capped, %d racy, %d sharing" !dropped !races
       !sharing)
    true
    (!dropped > 0 && !races > 0 && !sharing > 0)

let test_sanitize_oracle_examples () =
  let dir = "../examples/programs" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".pf")
    |> List.sort compare
  in
  Alcotest.(check bool) "example programs found" true (List.length files >= 9);
  List.iter
    (fun f ->
      let src = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      let prog =
        match Ddsm.compile_source ~fname:f src with
        | Error es -> Alcotest.failf "%s: %s" f (String.concat "\n" es)
        | Ok obj -> (
            match Ddsm.link [ obj ] with
            | Error es -> Alcotest.failf "%s: %s" f (String.concat "\n" es)
            | Ok (prog, _) -> prog)
      in
      List.iter
        (fun nprocs ->
          let cfg = Config.scaled ~nprocs ~factor:64 () in
          let line_bytes = cfg.Config.l2.Config.line_bytes
          and page_bytes = cfg.Config.page_bytes in
          let flat = Sanitize.create ~nprocs ~line_bytes ~page_bytes ()
          and ref_ = Sanitize_ref.create ~nprocs ~line_bytes ~page_bytes () in
          let rt = Ddsm.make_rt ~nprocs () in
          (match
             Ddsm.Engine.run prog ~rt
               ~observers:[ Sanitize.observe flat; Sanitize_ref.observe ref_ ]
               ()
           with
          | Ok _ -> ()
          | Error d -> Alcotest.failf "%s -p %d: %s" f nprocs (Ddsm.Diag.to_string d));
          let a = view_new flat and b = view_ref ref_ in
          if a <> b then
            Alcotest.failf "%s -p %d:\nflat:\n%s\nref:\n%s" f nprocs a b)
        [ 4; 32 ])
    files

(* ------------------------------------------------------------------ *)
(* TLB oracle: the indexed TLB against the scanning one it replaced *)

let tlb_pages resident =
  let l = ref [] in
  resident (fun ~page -> l := page :: !l);
  List.sort compare !l

let test_tlb_oracle () =
  for seed = 1 to 60 do
    let rand = rng (3000 + seed) in
    let module G = QCheck.Gen in
    let entries = G.generate1 ~rand (G.oneofl [ 1; 2; 3; 4; 16; 64 ]) in
    (* pages from a range a few times the capacity, so hits, misses and
       evictions all occur *)
    let npages = G.generate1 ~rand (G.oneofl [ entries + 1; 2 * entries; 4 * entries + 3 ]) in
    let nops = G.generate1 ~rand (G.int_range 100 3000) in
    let flat = Tlb.create ~entries and ref_ = Tlb_ref.create ~entries in
    for k = 1 to nops do
      let page = G.generate1 ~rand (G.int_range 0 (npages - 1)) in
      let op = G.generate1 ~rand (G.int_range 0 99) in
      let what, a, b =
        if op < 85 then
          ("access", Tlb.access flat ~page, Tlb_ref.access ref_ ~page)
        else if op < 98 then begin
          Tlb.invalidate flat ~page;
          Tlb_ref.invalidate ref_ ~page;
          ("invalidate", true, true)
        end
        else begin
          Tlb.flush flat;
          Tlb_ref.flush ref_;
          ("flush", true, true)
        end
      in
      if a <> b then
        Alcotest.failf "seed %d op %d (%s %d, %d entries): indexed=%b ref=%b"
          seed k what page entries a b;
      let pa = tlb_pages (Tlb.iter_resident flat)
      and pb = tlb_pages (Tlb_ref.iter_resident ref_) in
      if pa <> pb || Tlb.resident flat <> Tlb_ref.resident ref_ then
        Alcotest.failf "seed %d op %d (%s %d): resident pages differ" seed k
          what page
    done
  done

(* ------------------------------------------------------------------ *)
(* Memsys allocation: each kernel's probe stream at 8 procs, recorded from
   a whole run and replayed through [Memsys.access] on a fresh machine
   with the same static placement, allocates nothing per access. The
   replay must reproduce the run's counters, so the words measured are
   those of the run's own accesses. Minor words are deterministic for a
   given compiler and program: with OCaml 5.1.1 each replay, of 323,379 to
   592,551 accesses, allocates no word at all, and the bound is that. *)

let test_replay_allocation () =
  List.iter
    (fun name ->
      let prog =
        match Ddsm.compile_path ("../examples/programs/" ^ name ^ ".pf") with
        | Error es -> Alcotest.failf "%s: %s" name (String.concat "\n" es)
        | Ok obj -> (
            match Ddsm.link [ obj ] with
            | Error es -> Alcotest.failf "%s: %s" name (String.concat "\n" es)
            | Ok (prog, _) -> prog)
      in
      let procs = ref [] and addrs = ref [] and writes = ref [] and nows = ref [] in
      let rt = Ddsm.make_rt ~nprocs:8 () in
      Memsys.set_probe rt.Rt.mem
        (Some
           (fun e ->
             procs := e.Memsys.ev_proc :: !procs;
             addrs := e.Memsys.ev_addr :: !addrs;
             writes := e.Memsys.ev_write :: !writes;
             nows := e.Memsys.ev_now :: !nows));
      (match Ddsm.run prog ~rt () with
      | Ok _ -> ()
      | Error d -> Alcotest.failf "%s: %s" name (Ddsm.Diag.to_string d));
      let arr l = Array.of_list (List.rev l) in
      let procs = arr !procs and addrs = arr !addrs
      and writes = arr !writes and nows = arr !nows in
      let n = Array.length procs in
      let rt' = Ddsm.make_rt ~nprocs:8 () in
      Ddsm.Engine.elaborate prog ~rt:rt';
      let mem = rt'.Rt.mem in
      let before = Gc.minor_words () in
      for i = 0 to n - 1 do
        ignore
          (Memsys.access mem ~proc:procs.(i) ~addr:addrs.(i) ~write:writes.(i)
             ~now:nows.(i))
      done;
      let words = Gc.minor_words () -. before in
      let counters m = Ddsm_machine.Counters.to_assoc (Memsys.total_counters m) in
      Alcotest.(check (list (pair string int)))
        (name ^ ": the replay reproduces the run")
        (counters rt.Rt.mem) (counters mem);
      Alcotest.(check bool)
        (Printf.sprintf
           "%s -p 8 replay: %.0f words over %d accesses (bound 0)" name
           words n)
        true (words = 0.))
    [ "transpose"; "lu"; "conv" ]

(* ------------------------------------------------------------------ *)
(* jobs determinism *)

let test_jobs_order () =
  let xs = List.init 100 (fun i -> i) in
  let f x = (x * x * 2654435761) land 0xFFFFFF in
  let seq = Jobs.map ~jobs:1 f xs in
  List.iter
    (fun jobs ->
      let par = Jobs.map ~jobs f xs in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d matches sequential" jobs)
        seq par)
    [ 2; 3; 4; 7 ]

exception Boom of int

let test_jobs_first_failure () =
  (* several jobs fail; whatever domain finishes first, the exception
     delivered must be the FIRST failing job in list order *)
  let xs = List.init 50 (fun i -> i) in
  let f x = if x mod 7 = 3 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Jobs.map ~jobs f xs with
      | _ -> Alcotest.fail "expected a failure"
      | exception Boom x ->
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d raises earliest failure" jobs)
            3 x)
    [ 1; 4 ]

let test_jobs_lowest_index_under_timing_skew () =
  (* a high-index job fails instantly while a lower-index one fails only
     after burning time: whichever Domain.join observes an exception
     first, the failure delivered must still be the lowest-index one,
     run after run *)
  let xs = List.init 16 (fun i -> i) in
  let f x =
    if x = 14 then raise (Boom 14)
    else if x = 2 then begin
      let s = ref 0 in
      for i = 1 to 200_000 do
        s := !s + i
      done;
      ignore !s;
      raise (Boom 2)
    end
    else x
  in
  for _ = 1 to 25 do
    match Jobs.map ~jobs:4 f xs with
    | _ -> Alcotest.fail "expected a failure"
    | exception Boom x -> Alcotest.(check int) "lowest index wins" 2 x
  done

let test_jobs_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Jobs.map ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "single" [ 9 ] (Jobs.map ~jobs:4 (fun x -> x * 9) [ 1 ])

let () =
  Alcotest.run "machine-fastpath"
    [
      ( "oracle",
        [
          Alcotest.test_case "pagetable flat = reference" `Quick
            test_pagetable_oracle;
          Alcotest.test_case "directory flat = reference" `Quick
            test_directory_oracle;
          Alcotest.test_case "tlb indexed = reference" `Quick test_tlb_oracle;
        ] );
      ( "sanitize",
        [
          Alcotest.test_case "random streams flat = reference" `Quick
            test_sanitize_oracle_streams;
          Alcotest.test_case "examples flat = reference" `Quick
            test_sanitize_oracle_examples;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "memsys replay words per access" `Quick
            test_replay_allocation;
        ] );
      ( "runq",
        [
          Alcotest.test_case "FIFO ties" `Quick test_runq_fifo_ties;
          Alcotest.test_case "push below last pop raises" `Quick
            test_runq_push_below_pop;
          Alcotest.test_case "peek keeps the floor" `Quick
            test_runq_peek_keeps_floor;
          QCheck_alcotest.to_alcotest ~verbose:false prop_runq_oracle;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "map order deterministic" `Quick test_jobs_order;
          Alcotest.test_case "first failure re-raised" `Quick
            test_jobs_first_failure;
          Alcotest.test_case "lowest index wins under skew" `Quick
            test_jobs_lowest_index_under_timing_skew;
          Alcotest.test_case "empty and single" `Quick
            test_jobs_empty_and_single;
        ] );
    ]

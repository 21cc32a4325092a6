open Ddsm_machine
module Fault = Ddsm_check.Fault

type redist = {
  moved : int;
  words : int;
  rounds : int;
  round_words : int;
  retries : int;
  fell_back : bool;
}

type fetch = { retries : int; fell_back : bool }
type access = { mutable region : string; ev : Memsys.access_event }
type gather_step = Inspect | Fetch | Fallback
type mark = Run_begin | Run_end | Cycle_budget | Wakeup_lost | Watchdog_stall

type event =
  | Access of access
  | Alloc of { name : string; word_ranges : (int * int) list }
  | Fork of { region : string; nprocs : int; proc : int; now : int }
  | Join of { region : string; proc : int; now : int }
  | Barrier of { procs : int list; now : int }
  | Redistribute of { array : string; result : redist; proc : int; now : int }
  | Gather of {
      site : string;
      step : gather_step;
      slots : int;
      rounds : int;
      retries : int;
      proc : int;
      now : int;
    }
  | Mark of { mark : mark; proc : int; now : int }

type t = {
  heap : Heap.t;
  mem : Memsys.t;
  pools : Pools.t;
  argcheck : Argcheck.t;
  arrays : (string, Darray.t) Hashtbl.t;
  mutable redist_pages : int;
  mutable redist_retries : int;
  mutable redist_fallbacks : int;
  mutable gather_inspections : int;
  mutable gather_retries : int;
  mutable gather_fallbacks : int;
  job_procs : int;
  mutable observe : (event -> unit) option;
}

let create cfg ~policy ~heap_words ?job_procs
    ?(fault = Fault.none) () =
  let heap = Heap.create ~words:heap_words in
  let mem = Memsys.create cfg ~policy ~fault () in
  let job_procs =
    match job_procs with
    | None -> cfg.Config.nprocs
    | Some j ->
        if j < 1 || j > cfg.Config.nprocs then
          invalid_arg "Rt.create: job_procs out of machine range";
        j
  in
  {
    heap;
    mem;
    pools = Pools.create heap mem;
    argcheck = Argcheck.create ();
    arrays = Hashtbl.create 64;
    redist_pages = 0;
    redist_retries = 0;
    redist_fallbacks = 0;
    gather_inspections = 0;
    gather_retries = 0;
    gather_fallbacks = 0;
    job_procs;
    observe = None;
  }

let announce_alloc t ~name ~word_ranges =
  match t.observe with
  | None -> ()
  | Some observe -> observe (Alloc { name; word_ranges })

let nprocs t = t.job_procs
let page_words t = (Memsys.config t.mem).Config.page_bytes / Heap.word_bytes

let register t (a : Darray.t) =
  if Hashtbl.mem t.arrays a.Darray.name then
    invalid_arg (Printf.sprintf "Rt: array %s already declared" a.Darray.name);
  Hashtbl.replace t.arrays a.Darray.name a;
  a

let declare_plain t ~name ~elem ~extents ?lower () =
  register t
    (Darray.alloc_plain t.heap ~name ~elem ~extents ?lower
       ~page_words:(page_words t) ())

let declare_regular t ~name ~elem ~extents ?lower ~kinds ?onto () =
  register t
    (Darray.alloc_regular t.heap t.mem ~name ~elem ~extents ?lower ~kinds ?onto
       ~nprocs:t.job_procs ())

let declare_reshaped t ~name ~elem ~extents ?lower ~kinds ?onto () =
  register t
    (Darray.alloc_reshaped t.heap t.pools ~name ~elem ~extents ?lower
       ~kinds ?onto ~nprocs:t.job_procs ())

(* The one retry rule for bulk operations the fault plan can fail
   (redistribute, gather fetch): [attempt ()] runs at most [retry_limit]
   times, until it gives [Some]. Returns its result, or [None] when every
   attempt failed, with the number of failed attempts: the retries, each
   of which the caller charges one backoff. *)
let retry_limit = 3

let retry attempt =
  let rec go failed =
    if failed = retry_limit then (None, failed)
    else
      match attempt () with
      | Some r -> (Some r, failed)
      | None -> go (failed + 1)
  in
  go 0

let redistribute t ~name ~kinds ?onto ?procs () =
  match Hashtbl.find_opt t.arrays name with
  | None -> Error (Printf.sprintf "redistribute: unknown array %s" name)
  | Some { Darray.storage = Darray.Plain _; _ } ->
      Error (Printf.sprintf "redistribute: %s is not a distributed array" name)
  | Some a -> (
      (* onto-grid resize: the requested processor count is clamped to the
         job's, so one program runs unchanged on any machine size (the
         same start-up-time contract as [c$distribute] itself) *)
      let nprocs =
        match procs with
        | None -> t.job_procs
        | Some p -> max 1 (min p t.job_procs)
      in
      (* an attempt fails retryably when the fault plan refuses it up front
         (redist-fail) or a page migration fails mid-plan and rolls back
         (migrate-fail) *)
      let attempt () =
        if Fault.fails (Memsys.faults t.mem) Fault.Redist_attempt then None
        else Darray.redistribute a t.heap t.mem t.pools ~kinds ?onto ~nprocs ()
      in
      let moved, retries = retry attempt in
      t.redist_retries <- t.redist_retries + retries;
      match moved with
      | None ->
          (* every attempt failed: keep the old placement — the program
             stays correct, only slower *)
          t.redist_fallbacks <- t.redist_fallbacks + 1;
          Ok
            {
              moved = 0;
              words = 0;
              rounds = 0;
              round_words = 0;
              retries;
              fell_back = true;
            }
      | Some o ->
          t.redist_pages <- t.redist_pages + o.Darray.pages_moved;
          (* page homes (regular) or portion addresses (reshaped) changed:
             cached gather schedules over this array are stale *)
          Darray.bump_version a;
          (* a reshaped relayout installs new portions; a regular one moves
             pages, not addresses *)
          (match a.Darray.storage with
          | Darray.Reshaped _ ->
              announce_alloc t ~name:a.Darray.name
                ~word_ranges:(Darray.word_ranges a)
          | Darray.Plain _ | Darray.Regular _ -> ());
          Ok
            {
              moved = o.Darray.pages_moved;
              words = o.Darray.words_moved;
              rounds = o.Darray.rounds;
              round_words = o.Darray.round_words;
              retries;
              fell_back = false;
            })

let find_array t name = Hashtbl.find_opt t.arrays name

(* ------------------------------------------------------------------ *)
(* Inspector-executor gathers *)

(* Scratch storage for a gather site: page-aligned and padded to whole
   pages, pages block-placed over the job's processors so executor reads
   spread across the machine instead of hammering one home node. The
   scratch words are announced as an [Alloc] of the SOURCE array —
   profiler and sanitizer attribute the gathered words to the array they
   came from. *)
let alloc_gather_scratch t ~src_array ~words =
  let pw = page_words t in
  let padded = max pw ((words + pw - 1) / pw * pw) in
  let base = Heap.alloc t.heap ~words:padded ~align_words:pw in
  let npages = padded / pw in
  let cfg = Memsys.config t.mem in
  let base_pg = Heap.byte_of_word base / cfg.Config.page_bytes in
  for i = 0 to npages - 1 do
    let p = i * t.job_procs / npages in
    Memsys.place_page t.mem ~page:(base_pg + i)
      ~node:(Config.node_of_proc cfg p)
  done;
  announce_alloc t ~name:src_array ~word_ranges:[ (base, base + padded - 1) ];
  base

(* One bulk fetch of [addrs]' first [slots] words into the scratch at
   [scratch], under the retry rule: a successful attempt copies every
   slot at once; when every attempt fails, scratch is left for the
   caller's per-element fallback. *)
let gather_fetch t ~elem ~addrs ~scratch ~slots =
  let fetched, retries =
    retry (fun () ->
        if Fault.fails (Memsys.faults t.mem) Fault.Gather_fetch then None
        else Some ())
  in
  t.gather_retries <- t.gather_retries + retries;
  match fetched with
  | Some () ->
      for i = 0 to slots - 1 do
        Darray.copy_elem t.heap elem ~src:addrs.(i) ~dst:(scratch + i)
      done;
      { retries; fell_back = false }
  | None ->
      t.gather_fallbacks <- t.gather_fallbacks + 1;
      { retries; fell_back = true }

let read t ~addr ~elem =
  match (elem : Darray.elem) with
  | Darray.Real -> Heap.get_real t.heap addr
  | Darray.Int -> float_of_int (Heap.get_int t.heap addr)

(* Real-to-integer element conversion: NaN has no integer value and
   [int_of_float] on an out-of-range real is unspecified (it used to come
   back as 0 or garbage silently); both must surface as runtime errors,
   not as corrupted data. 2^62 is the first magnitude past [max_int]
   exactly representable as a float; [-2^62] itself is [min_int]. *)
let int_magnitude_bound = 4611686018427387904.0 (* 2^62 *)

let int_of_real v =
  if Float.is_nan v || v >= int_magnitude_bound || v < -.int_magnitude_bound
  then None
  else Some (int_of_float v)

let write t ~addr ~elem v =
  match (elem : Darray.elem) with
  | Darray.Real -> Heap.set_real t.heap addr v
  | Darray.Int -> (
      match int_of_real v with
      | Some i -> Heap.set_int t.heap addr i
      | None ->
          invalid_arg
            (Printf.sprintf
               "Rt.write: %g has no integer value (NaN or out of range)" v))

let audit t =
  let machine = Memsys.audit t.mem in
  let heap =
    Hashtbl.fold
      (fun _ a acc -> List.rev_append (Darray.audit a t.heap) acc)
      t.arrays []
  in
  machine @ heap

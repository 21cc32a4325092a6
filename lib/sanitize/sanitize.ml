(* FastTrack-style happens-before race detection over the simulator's
   deterministic access stream, plus line/page false-sharing classification.

   Clock discipline. Every job processor p owns a vector clock vc.(p); the
   serial master runs as processor 0 and shares slot 0 with worker 0 (sound:
   the master is suspended while its workers run, so the two are never
   concurrent). Epochs compress a (clock, proc) pair into one int so the
   common shadow states are a single word.

   Barriers. The scheduler holds a worker at a barrier until the barrier
   releases, so the access stream never shows a worker's post-barrier
   access before a sibling's pre-barrier one, and a release joins the
   clocks of exactly the processors it released. A worker whose arrival a
   fault plan drops is not among them: its accesses on either side keep
   their stale clocks, which is what makes a dropped barrier observable as
   a race. *)

module Memsys = Ddsm_machine.Memsys
module Rt = Ddsm_runtime.Rt
module Json = Ddsm_report.Json
module Addrmap = Ddsm_report.Addrmap

type kind = Race | Line_sharing | Page_sharing

let kind_name = function
  | Race -> "data-race"
  | Line_sharing -> "line-false-sharing"
  | Page_sharing -> "page-false-sharing"

type report = {
  rep_kind : kind;
  rep_addr : int;
  rep_array : string;
  rep_first_proc : int;
  rep_first_write : bool;
  rep_first_region : string;
  rep_second_proc : int;
  rep_second_write : bool;
  rep_second_region : string;
}

(* Shadow state lives in flat int arrays indexed by word, line and page
   number, grown (doubling) to the highest index touched. Region labels and
   array names are interned ids ([Addrmap.Names]).

   Per word, [word_stride] ints: the last write epoch and its region, the
   last read epoch and its region. -1 is "none". A read epoch <= -2 means
   the reads were concurrent and live in read vector -2 - r of [rvecs]
   (FastTrack's promotion): one clock per processor, -1 for none.

   Per line and per page, [unit_stride] ints: the last write and the last
   read, each as (epoch, sub-unit it hit, region), where the sub-unit is
   the word within the line or the line within the page. *)
let word_stride = 4
let unit_stride = 6

type t = {
  nprocs : int;
  proc_bits : int;
  proc_mask : int;
  line_shift : int;
  page_shift : int;
  vc : int array array; (* nprocs x nprocs *)
  mutable words : int array;
  mutable lines : int array;
  mutable pages : int array;
  mutable rvecs : int array; (* nprocs ints per read vector *)
  mutable rvec_count : int; (* vectors in the pool, free ones included *)
  mutable rvec_free : int; (* free vector chained through its slot 0; -1 none *)
  mutable width : int; (* processors of the current region; 0 serial *)
  mutable races : report list; (* reverse detection order *)
  mutable sharing : report list;
  mutable n_races : int;
  mutable n_sharing : int;
  mutable dropped : int;
  seen : (int, unit) Hashtbl.t; (* report dedup, by [dedup_key] *)
  regions : Addrmap.Names.t;
  arrays : Addrmap.Names.t;
  unattributed : int; (* array id of "(unattributed)" *)
  owners : int Addrmap.t; (* byte address -> array id, for reports *)
}

let reports_cap = 200

let log2 x =
  let rec go x acc = if x <= 1 then acc else go (x lsr 1) (acc + 1) in
  go x 0

let create ~nprocs ~line_bytes ~page_bytes () =
  if nprocs < 1 then invalid_arg "Sanitize.create: nprocs < 1";
  if line_bytes < 8 || page_bytes < line_bytes then
    invalid_arg "Sanitize.create: bad line/page geometry";
  let proc_bits = max 1 (log2 nprocs + if nprocs land (nprocs - 1) = 0 then 0 else 1) in
  let arrays = Addrmap.Names.create () in
  {
    nprocs;
    proc_bits;
    proc_mask = (1 lsl proc_bits) - 1;
    line_shift = log2 line_bytes;
    page_shift = log2 page_bytes;
    vc = Array.init nprocs (fun _ -> Array.make nprocs 0);
    words = [||];
    lines = [||];
    pages = [||];
    rvecs = [||];
    rvec_count = 0;
    rvec_free = -1;
    width = 0;
    races = [];
    sharing = [];
    n_races = 0;
    n_sharing = 0;
    dropped = 0;
    seen = Hashtbl.create 64;
    regions = Addrmap.Names.create ();
    arrays;
    unattributed = Addrmap.Names.id arrays "(unattributed)";
    owners = Addrmap.create ();
  }

(* [a] grown to cover index [i], new slots -1; a length that is a multiple
   of a stride stays one when [i + 1] is *)
let grown a i =
  let b = Array.make (max (i + 1) (2 * Array.length a)) (-1) in
  Array.blit a 0 b 0 (Array.length a);
  b

(* ------------------------------------------------------------------ *)
(* Epochs *)

let epoch t p = (t.vc.(p).(p) lsl t.proc_bits) lor p
let ep_proc t e = e land t.proc_mask
let ep_clock t e = e lsr t.proc_bits
let ep_leq t e myvc = ep_clock t e <= myvc.(ep_proc t e)

(* ------------------------------------------------------------------ *)
(* Reports *)

(* Injective over (kind, array, first region, first write, second region,
   second write) while every id is below 2^id_bits: 3 x 19 id bits and 4
   flag bits fit a 63-bit int. *)
let id_bits = 19

let dedup_key kind ~arr ~freg ~fw ~sreg ~sw =
  if (arr lor freg lor sreg) lsr id_bits <> 0 then
    invalid_arg "Sanitize: more than 2^19 distinct region labels or arrays";
  let k = match kind with Race -> 0 | Line_sharing -> 1 | Page_sharing -> 2 in
  (((((arr lsl id_bits) lor freg) lsl id_bits) lor sreg) lsl 4)
  lor (k lsl 2) lor (Bool.to_int fw lsl 1) lor Bool.to_int sw

let record t kind ~addr ~fp ~fw ~freg ~sp ~sw ~sreg =
  let arr = Addrmap.find t.owners addr ~default:t.unattributed in
  let key = dedup_key kind ~arr ~freg ~fw ~sreg ~sw in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    if t.n_races + t.n_sharing >= reports_cap then t.dropped <- t.dropped + 1
    else begin
      let name = Addrmap.Names.name in
      let r =
        {
          rep_kind = kind;
          rep_addr = addr;
          rep_array = name t.arrays arr;
          rep_first_proc = fp;
          rep_first_write = fw;
          rep_first_region = name t.regions freg;
          rep_second_proc = sp;
          rep_second_write = sw;
          rep_second_region = name t.regions sreg;
        }
      in
      match kind with
      | Race ->
          t.races <- r :: t.races;
          t.n_races <- t.n_races + 1
      | Line_sharing | Page_sharing ->
          t.sharing <- r :: t.sharing;
          t.n_sharing <- t.n_sharing + 1
    end
  end

(* ------------------------------------------------------------------ *)
(* The core checks: one access by [p] with the phase-correct clock [myvc] *)

(* a cleared read vector, reusing a freed one when there is one *)
let new_rvec t =
  let v =
    if t.rvec_free >= 0 then begin
      let v = t.rvec_free in
      t.rvec_free <- t.rvecs.(v * t.nprocs);
      v
    end
    else begin
      let v = t.rvec_count in
      t.rvec_count <- v + 1;
      if (v + 1) * t.nprocs > Array.length t.rvecs then
        t.rvecs <- grown t.rvecs (((v + 1) * t.nprocs) - 1);
      v
    end
  in
  Array.fill t.rvecs (v * t.nprocs) t.nprocs (-1);
  v

let free_rvec t v =
  t.rvecs.(v * t.nprocs) <- t.rvec_free;
  t.rvec_free <- v

(* false-sharing check at one granularity, on the unit at [s.(i)]: [sub] is
   the word within the line (or the line within the page); conflicts on the
   *same* sub-unit are the word shadow's business, not false sharing *)
let check_unit t kind s i ~p ~sub ~write ~region ~addr ~myvc =
  let w_ep = s.(i) in
  if w_ep >= 0 && ep_proc t w_ep <> p && s.(i + 1) <> sub
     && not (ep_leq t w_ep myvc)
  then
    record t kind ~addr ~fp:(ep_proc t w_ep) ~fw:true ~freg:s.(i + 2) ~sp:p
      ~sw:write ~sreg:region;
  let r_ep = s.(i + 3) in
  if write && r_ep >= 0 && ep_proc t r_ep <> p && s.(i + 4) <> sub
     && not (ep_leq t r_ep myvc)
  then
    record t kind ~addr ~fp:(ep_proc t r_ep) ~fw:false ~freg:s.(i + 5) ~sp:p
      ~sw:true ~sreg:region;
  let j = if write then i else i + 3 in
  s.(j) <- epoch t p;
  s.(j + 1) <- sub;
  s.(j + 2) <- region

let process t ~p ~addr ~write ~region =
  let myvc = t.vc.(p) in
  let w = addr lsr 3 in
  let i = w * word_stride in
  if i + word_stride > Array.length t.words then
    t.words <- grown t.words (i + word_stride - 1);
  let s = t.words in
  (* write-read / write-write: the stored write must happen-before us *)
  let w_ep = s.(i) in
  if w_ep >= 0 && ep_proc t w_ep <> p && not (ep_leq t w_ep myvc) then
    record t Race ~addr ~fp:(ep_proc t w_ep) ~fw:true ~freg:s.(i + 1) ~sp:p
      ~sw:write ~sreg:region;
  let r = s.(i + 2) in
  if write then begin
    (* read-write: every stored read must happen-before us *)
    if r <= -2 then begin
      let v = -2 - r in
      let base = v * t.nprocs in
      for q = 0 to t.nprocs - 1 do
        let c = t.rvecs.(base + q) in
        if c >= 0 && q <> p && c > myvc.(q) then
          record t Race ~addr ~fp:q ~fw:false ~freg:s.(i + 3) ~sp:p ~sw:true
            ~sreg:region
      done;
      free_rvec t v
    end
    else if r >= 0 && ep_proc t r <> p && not (ep_leq t r myvc) then
      record t Race ~addr ~fp:(ep_proc t r) ~fw:false ~freg:s.(i + 3) ~sp:p
        ~sw:true ~sreg:region;
    s.(i) <- epoch t p;
    s.(i + 1) <- region;
    s.(i + 2) <- -1
  end
  else if r <= -2 then begin
    let j = ((-2 - r) * t.nprocs) + p in
    t.rvecs.(j) <- Int.max t.rvecs.(j) t.vc.(p).(p)
  end
  (* record the read: stay an epoch when reads are totally ordered,
     promote to a read vector on the first concurrent pair (FastTrack) *)
  else if r < 0 || ep_proc t r = p || ep_leq t r myvc then begin
    s.(i + 2) <- epoch t p;
    s.(i + 3) <- region
  end
  else begin
    let v = new_rvec t in
    t.rvecs.((v * t.nprocs) + ep_proc t r) <- ep_clock t r;
    t.rvecs.((v * t.nprocs) + p) <- t.vc.(p).(p);
    s.(i + 2) <- -2 - v;
    s.(i + 3) <- region
  end;
  let line = addr lsr t.line_shift in
  let li = line * unit_stride in
  if li + unit_stride > Array.length t.lines then
    t.lines <- grown t.lines (li + unit_stride - 1);
  check_unit t Line_sharing t.lines li ~p ~sub:w ~write ~region ~addr ~myvc;
  let pi = (addr lsr t.page_shift) * unit_stride in
  if pi + unit_stride > Array.length t.pages then
    t.pages <- grown t.pages (pi + unit_stride - 1);
  check_unit t Page_sharing t.pages pi ~p ~sub:line ~write ~region ~addr ~myvc

(* ------------------------------------------------------------------ *)
(* Structural events *)

(* the processors [procs] synchronize: each takes the join of their
   clocks and starts a new epoch *)
let sync t procs =
  let j = Array.make t.nprocs 0 in
  List.iter
    (fun p ->
      let v = t.vc.(p) in
      for i = 0 to t.nprocs - 1 do
        if v.(i) > j.(i) then j.(i) <- v.(i)
      done)
    procs;
  List.iter
    (fun p ->
      Array.blit j 0 t.vc.(p) 0 t.nprocs;
      t.vc.(p).(p) <- j.(p) + 1)
    procs

let on_fork t ~nprocs =
  let n = min nprocs t.nprocs in
  let m = Array.copy t.vc.(0) in
  for p = 0 to n - 1 do
    Array.blit m 0 t.vc.(p) 0 t.nprocs;
    t.vc.(p).(p) <- m.(p) + 1
  done;
  t.width <- n

(* the master (slot 0) takes the join of every worker's clock *)
let on_join t =
  if t.width > 0 then begin
    sync t (List.init t.width Fun.id);
    t.width <- 0
  end

(* The sanitizer's subscription to the event stream. *)
let observe t = function
  | Rt.Access { region; ev = { Memsys.ev_proc = p; ev_addr; ev_write; _ } } ->
      if p < t.nprocs then
        process t ~p ~addr:ev_addr ~write:ev_write
          ~region:(Addrmap.Names.id t.regions region)
  | Rt.Alloc { name; word_ranges } ->
      Addrmap.add t.owners ~word_ranges (Addrmap.Names.id t.arrays name)
  | Rt.Fork { nprocs; _ } -> on_fork t ~nprocs
  | Rt.Join _ -> on_join t
  | Rt.Barrier { procs; _ } ->
      sync t (List.filter (fun p -> p < t.width) procs)
  | Rt.Redistribute _ | Rt.Gather _ | Rt.Mark _ -> ()

(* ------------------------------------------------------------------ *)
(* Results *)

let races t = List.rev t.races
let false_sharing t = List.rev t.sharing
let dropped t = t.dropped
let is_clean t = t.races = [] && t.dropped = 0

let access_desc w = if w then "write" else "read"

let report_obj r =
  Json.Obj
    [
      ("kind", Json.Str (kind_name r.rep_kind));
      ("addr", Json.Int r.rep_addr);
      ("array", Json.Str r.rep_array);
      ( "first",
        Json.Obj
          [
            ("proc", Json.Int r.rep_first_proc);
            ("access", Json.Str (access_desc r.rep_first_write));
            ("region", Json.Str r.rep_first_region);
          ] );
      ( "second",
        Json.Obj
          [
            ("proc", Json.Int r.rep_second_proc);
            ("access", Json.Str (access_desc r.rep_second_write));
            ("region", Json.Str r.rep_second_region);
          ] );
    ]

let report_json t =
  Json.Obj
    [
      ("races", Json.Int t.n_races);
      ("false_sharing", Json.Int t.n_sharing);
      ("dropped", Json.Int t.dropped);
      ("reports", Json.List (List.map report_obj (races t @ false_sharing t)));
    ]

let describe r =
  Printf.sprintf "array %s: p%d %s (%s) unordered with p%d %s (%s) at byte %d"
    r.rep_array r.rep_first_proc
    (access_desc r.rep_first_write)
    r.rep_first_region r.rep_second_proc
    (access_desc r.rep_second_write)
    r.rep_second_region r.rep_addr

let pp_one ppf r =
  let what =
    match r.rep_kind with
    | Race -> "data race"
    | Line_sharing -> "false sharing (cache line)"
    | Page_sharing -> "false sharing (page)"
  in
  Format.fprintf ppf "%s: %s" what (describe r)

let pp_report ppf t =
  Format.fprintf ppf "sanitizer: %d data race(s), %d false-sharing pair(s)%s@."
    t.n_races t.n_sharing
    (if t.dropped > 0 then Printf.sprintf " (%d report(s) dropped)" t.dropped
     else "");
  List.iter (fun r -> Format.fprintf ppf "  %a@." pp_one r) (races t);
  List.iter (fun r -> Format.fprintf ppf "  %a@." pp_one r) (false_sharing t)

(* Reference sanitizer: the FastTrack detector as it stood before its shadow
   state moved into flat arrays, kept as the oracle of the differential
   tests in test_machine_fastpath.ml. [Sanitize] must report exactly what
   this does on every event stream. Not used by pflrun. *)

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

(* per-word shadow: last write epoch, last read epoch — promoted to a full
   read vector only when genuinely concurrent reads are seen (FastTrack) *)
type shadow = {
  mutable w_ep : int; (* -1 = none *)
  mutable w_region : string;
  mutable r_ep : int; (* -1 = none; meaningful when r_vec = [||] *)
  mutable r_region : string;
  mutable r_vec : int array; (* [||] = epoch mode; else clock per proc, -1 none *)
}

(* per-line / per-page shadow for false sharing: the last write and last
   read, each with the sub-unit (word in a line, line in a page) it hit *)
type unit_shadow = {
  mutable uw_ep : int;
  mutable uw_sub : int;
  mutable uw_region : string;
  mutable ur_ep : int;
  mutable ur_sub : int;
  mutable ur_region : string;
}

type t = {
  nprocs : int;
  proc_bits : int;
  proc_mask : int;
  line_shift : int;
  page_shift : int;
  vc : int array array; (* nprocs x nprocs *)
  words : (int, shadow) Hashtbl.t;
  lines : (int, unit_shadow) Hashtbl.t;
  pages : (int, unit_shadow) Hashtbl.t;
  mutable width : int; (* processors of the current region; 0 serial *)
  mutable races : report list; (* reverse detection order *)
  mutable sharing : report list;
  mutable n_races : int;
  mutable n_sharing : int;
  mutable dropped : int;
  seen : (string, unit) Hashtbl.t; (* report dedup *)
  owners : string Addrmap.t; (* byte address -> array, for reports *)
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
  {
    nprocs;
    proc_bits;
    proc_mask = (1 lsl proc_bits) - 1;
    line_shift = log2 line_bytes;
    page_shift = log2 page_bytes;
    vc = Array.init nprocs (fun _ -> Array.make nprocs 0);
    words = Hashtbl.create 4096;
    lines = Hashtbl.create 1024;
    pages = Hashtbl.create 256;
    width = 0;
    races = [];
    sharing = [];
    n_races = 0;
    n_sharing = 0;
    dropped = 0;
    seen = Hashtbl.create 64;
    owners = Addrmap.create ();
  }

(* ------------------------------------------------------------------ *)
(* Epochs *)

let epoch t p = (t.vc.(p).(p) lsl t.proc_bits) lor p
let ep_proc t e = e land t.proc_mask
let ep_clock t e = e lsr t.proc_bits
let ep_leq t e myvc = ep_clock t e <= myvc.(ep_proc t e)

(* ------------------------------------------------------------------ *)
(* Reports *)

let record t kind ~addr ~fp ~fw ~freg ~sp ~sw ~sreg =
  let arr = Addrmap.find t.owners addr ~default:"(unattributed)" in
  let key =
    Printf.sprintf "%s|%s|%s|%b|%s|%b" (kind_name kind) arr freg fw sreg sw
  in
  if not (Hashtbl.mem t.seen key) then begin
    Hashtbl.replace t.seen key ();
    if t.n_races + t.n_sharing >= reports_cap then t.dropped <- t.dropped + 1
    else begin
      let r =
        {
          rep_kind = kind;
          rep_addr = addr;
          rep_array = arr;
          rep_first_proc = fp;
          rep_first_write = fw;
          rep_first_region = freg;
          rep_second_proc = sp;
          rep_second_write = sw;
          rep_second_region = sreg;
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

let word_shadow t w =
  match Hashtbl.find_opt t.words w with
  | Some s -> s
  | None ->
      let s = { w_ep = -1; w_region = ""; r_ep = -1; r_region = ""; r_vec = [||] } in
      Hashtbl.add t.words w s;
      s

let unit_shadow tbl u =
  match Hashtbl.find_opt tbl u with
  | Some s -> s
  | None ->
      let s =
        { uw_ep = -1; uw_sub = -1; uw_region = ""; ur_ep = -1; ur_sub = -1; ur_region = "" }
      in
      Hashtbl.add tbl u s;
      s

(* false-sharing check at one granularity: [sub] is the word within the
   line (or the line within the page); conflicts on the *same* sub-unit are
   the word-shadow's business, not false sharing *)
let check_unit t tbl u ~p ~sub ~write ~region ~addr ~myvc =
  let s = unit_shadow tbl u in
  let kind = if tbl == t.lines then Line_sharing else Page_sharing in
  if
    s.uw_ep >= 0 && ep_proc t s.uw_ep <> p && s.uw_sub <> sub
    && not (ep_leq t s.uw_ep myvc)
  then
    record t kind ~addr ~fp:(ep_proc t s.uw_ep) ~fw:true ~freg:s.uw_region ~sp:p
      ~sw:write ~sreg:region;
  if
    write && s.ur_ep >= 0
    && ep_proc t s.ur_ep <> p
    && s.ur_sub <> sub
    && not (ep_leq t s.ur_ep myvc)
  then
    record t kind ~addr ~fp:(ep_proc t s.ur_ep) ~fw:false ~freg:s.ur_region ~sp:p
      ~sw:true ~sreg:region;
  if write then begin
    s.uw_ep <- epoch t p;
    s.uw_sub <- sub;
    s.uw_region <- region
  end
  else begin
    s.ur_ep <- epoch t p;
    s.ur_sub <- sub;
    s.ur_region <- region
  end

let process t ~p ~addr ~write ~region =
  let myvc = t.vc.(p) in
  let w = addr lsr 3 in
  let s = word_shadow t w in
  (* write-read / write-write: the stored write must happen-before us *)
  if s.w_ep >= 0 && ep_proc t s.w_ep <> p && not (ep_leq t s.w_ep myvc) then
    record t Race ~addr ~fp:(ep_proc t s.w_ep) ~fw:true ~freg:s.w_region ~sp:p
      ~sw:write ~sreg:region;
  if write then begin
    (* read-write: every stored read must happen-before us *)
    if s.r_vec <> [||] then
      Array.iteri
        (fun q c ->
          if c >= 0 && q <> p && c > myvc.(q) then
            record t Race ~addr ~fp:q ~fw:false ~freg:s.r_region ~sp:p ~sw:true
              ~sreg:region)
        s.r_vec
    else if s.r_ep >= 0 && ep_proc t s.r_ep <> p && not (ep_leq t s.r_ep myvc)
    then
      record t Race ~addr ~fp:(ep_proc t s.r_ep) ~fw:false ~freg:s.r_region
        ~sp:p ~sw:true ~sreg:region;
    s.w_ep <- epoch t p;
    s.w_region <- region;
    s.r_ep <- -1;
    s.r_vec <- [||]
  end
  else begin
    (* record the read: stay an epoch when reads are totally ordered,
       promote to a read vector on the first concurrent pair (FastTrack) *)
    if s.r_vec <> [||] then s.r_vec.(p) <- max s.r_vec.(p) t.vc.(p).(p)
    else if s.r_ep < 0 || ep_proc t s.r_ep = p || ep_leq t s.r_ep myvc then begin
      s.r_ep <- epoch t p;
      s.r_region <- region
    end
    else begin
      let v = Array.make t.nprocs (-1) in
      v.(ep_proc t s.r_ep) <- ep_clock t s.r_ep;
      v.(p) <- t.vc.(p).(p);
      s.r_vec <- v;
      s.r_region <- region
    end
  end;
  check_unit t t.lines (addr lsr t.line_shift) ~p ~sub:w ~write ~region ~addr
    ~myvc;
  check_unit t t.pages (addr lsr t.page_shift) ~p ~sub:(addr lsr t.line_shift)
    ~write ~region ~addr ~myvc

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

let on_join t =
  if t.width > 0 then begin
    sync t (List.init t.width Fun.id);
    t.width <- 0
  end

let observe t = function
  | Rt.Access { region; ev = { Memsys.ev_proc = p; ev_addr; ev_write; _ } } ->
      if p < t.nprocs then process t ~p ~addr:ev_addr ~write:ev_write ~region
  | Rt.Alloc { name; word_ranges } -> Addrmap.add t.owners ~word_ranges name
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

let pp_one ppf r =
  let what =
    match r.rep_kind with
    | Race -> "data race"
    | Line_sharing -> "false sharing (cache line)"
    | Page_sharing -> "false sharing (page)"
  in
  Format.fprintf ppf "%s: array %s: p%d %s (%s) unordered with p%d %s (%s) at byte %d"
    what r.rep_array r.rep_first_proc
    (access_desc r.rep_first_write)
    r.rep_first_region r.rep_second_proc
    (access_desc r.rep_second_write)
    r.rep_second_region r.rep_addr

let pp_report ppf t =
  Format.fprintf ppf "sanitizer: %d data race(s), %d false-sharing pair(s)%s@."
    t.n_races t.n_sharing
    (if t.dropped > 0 then Printf.sprintf " (%d report(s) dropped)" t.dropped
     else "");
  List.iter (fun r -> Format.fprintf ppf "  %a@." pp_one r) (races t);
  List.iter (fun r -> Format.fprintf ppf "  %a@." pp_one r) (false_sharing t)

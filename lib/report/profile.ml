open Ddsm_machine
module Rt = Ddsm_runtime.Rt

type cause = Tlb | Hit | Local_fill | Remote_fill | Contention | Coherence

let causes = [| Tlb; Hit; Local_fill; Remote_fill; Contention; Coherence |]
let ncauses = Array.length causes

let cause_index = function
  | Tlb -> 0
  | Hit -> 1
  | Local_fill -> 2
  | Remote_fill -> 3
  | Contention -> 4
  | Coherence -> 5

let cause_name = function
  | Tlb -> "tlb"
  | Hit -> "hit"
  | Local_fill -> "local"
  | Remote_fill -> "remote"
  | Contention -> "contention"
  | Coherence -> "coherence"

module Names = Addrmap.Names

(* ---- trace events ----------------------------------------------------- *)

type phase = Begin | End | Instant

type trace_event = {
  te_name : string;
  te_cat : string;
  te_ph : phase;
  te_tid : int;
  te_ts : int;
  te_args : (string * Json.t) list;
}

type t = {
  regions : Names.t;
  arrays : Names.t;
  unattributed_id : int;
  owners : int Addrmap.t;  (* byte address -> interned array id *)
  (* (region, array) -> per-cause stall cycles: the row set, whose fold
     order [rows] keeps for ties *)
  matrix : (int * int, int array) Hashtbl.t;
  (* the same cells by region id, then array id; [||] where none yet *)
  mutable dense : int array array array;
  mutable total : int;
  mutable unattributed : int;
  (* bounded ring buffer of trace events *)
  ring : trace_event option array;
  mutable ring_next : int;
  mutable ring_count : int;
}

let create ?(trace_cap = 65536) () =
  let arrays = Names.create () in
  let unattributed_id = Names.id arrays "(unattributed)" in
  {
    regions = Names.create ();
    arrays;
    unattributed_id;
    owners = Addrmap.create ();
    matrix = Hashtbl.create 64;
    dense = [||];
    total = 0;
    unattributed = 0;
    ring = Array.make (max 1 trace_cap) None;
    ring_next = 0;
    ring_count = 0;
  }

(* ---- attribution ------------------------------------------------------ *)

(* [a] with index [i] valid, new slots [x] *)
let grown a i x =
  if i < Array.length a then a
  else begin
    let b = Array.make (max (i + 1) (2 * Array.length a)) x in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let new_cell t ~region ~array =
  let c = Array.make ncauses 0 in
  Hashtbl.replace t.matrix (region, array) c;
  t.dense <- grown t.dense region [||];
  t.dense.(region) <- grown t.dense.(region) array [||];
  t.dense.(region).(array) <- c;
  c

let cell t ~region ~array =
  let row = if region < Array.length t.dense then t.dense.(region) else [||] in
  let c = if array < Array.length row then row.(array) else [||] in
  if Array.length c > 0 then c else new_cell t ~region ~array

let record_access t ~region (ev : Memsys.access_event) =
  let rid = Names.id t.regions region in
  let aid =
    Addrmap.find t.owners ev.Memsys.ev_addr ~default:t.unattributed_id
  in
  let c = cell t ~region:rid ~array:aid in
  c.(0) <- c.(0) + ev.Memsys.ev_tlb;
  c.(1) <- c.(1) + ev.Memsys.ev_hit;
  c.(2) <- c.(2) + ev.Memsys.ev_local;
  c.(3) <- c.(3) + ev.Memsys.ev_remote;
  c.(4) <- c.(4) + ev.Memsys.ev_contention;
  c.(5) <- c.(5) + ev.Memsys.ev_coherence;
  let cycles =
    ev.Memsys.ev_tlb + ev.Memsys.ev_hit + ev.Memsys.ev_local
    + ev.Memsys.ev_remote + ev.Memsys.ev_contention + ev.Memsys.ev_coherence
  in
  t.total <- t.total + cycles;
  if aid = t.unattributed_id then t.unattributed <- t.unattributed + cycles

let total_stall t = t.total
let attributed_stall t = t.total - t.unattributed

(* ---- trace ------------------------------------------------------------ *)

let event t ~name ~cat ?(args = []) ph ~tid ~ts =
  let cap = Array.length t.ring in
  t.ring.(t.ring_next) <-
    Some { te_name = name; te_cat = cat; te_ph = ph; te_tid = tid;
           te_ts = ts; te_args = args };
  t.ring_next <- (t.ring_next + 1) mod cap;
  t.ring_count <- t.ring_count + 1

(* an instant from the runtime, with a human-readable [detail] *)
let runtime t ~name ?detail ~proc ~now () =
  let args = Option.map (fun d -> [ ("detail", Json.Str d) ]) detail in
  event t ~name ~cat:"runtime" ?args Instant ~tid:proc ~ts:now

(* ---- the subscriber --------------------------------------------------- *)

(* The one place an event gets its Chrome-trace name, category and
   detail. *)
let observe t = function
  | Rt.Access { region; ev } ->
      record_access t ~region ev;
      if ev.Memsys.ev_tlb_flushed then
        event t ~name:"tlb-flush" ~cat:"fault" Instant ~tid:ev.Memsys.ev_proc
          ~ts:ev.Memsys.ev_now
  | Rt.Alloc { name; word_ranges } ->
      Addrmap.add t.owners ~word_ranges (Names.id t.arrays name)
  | Rt.Fork { region; proc; now; _ } ->
      event t ~name:region ~cat:"ddsm" Begin ~tid:proc ~ts:now
  | Rt.Join { region; proc; now } ->
      event t ~name:region ~cat:"ddsm" End ~tid:proc ~ts:now
  | Rt.Barrier { procs; now } ->
      List.iter (fun proc -> runtime t ~name:"barrier" ~proc ~now ()) procs
  | Rt.Redistribute
      { array; result = { moved; rounds; retries; fell_back; _ }; proc; now }
    ->
      runtime t
        ~name:(if fell_back then "redistribute-fallback" else "redistribute")
        ~detail:
          (Printf.sprintf "%s moved=%d rounds=%d retries=%d" array moved
             rounds retries)
        ~proc ~now ()
  | Rt.Gather { site; step; slots; rounds; retries; proc; now } ->
      let name, detail =
        match step with
        | Rt.Inspect ->
            ( "gather-inspect",
              Printf.sprintf "%s slots=%d rounds=%d" site slots rounds )
        | Rt.Fetch ->
            ( "gather",
              Printf.sprintf "%s slots=%d rounds=%d retries=%d" site slots
                rounds retries )
        | Rt.Fallback ->
            ("gather-fallback", Printf.sprintf "%s slots=%d" site slots)
      in
      runtime t ~name ~detail ~proc ~now ()
  | Rt.Mark { mark; proc; now } ->
      let name, ph =
        match mark with
        | Rt.Run_begin -> ("run", Begin)
        | Rt.Run_end -> ("run", End)
        | Rt.Cycle_budget -> ("cycle-budget", Instant)
        | Rt.Wakeup_lost -> ("wakeup-lost", Instant)
        | Rt.Watchdog_stall -> ("watchdog-stall", Instant)
      in
      event t ~name ~cat:"ddsm" ph ~tid:proc ~ts:now

let trace_dropped t = max 0 (t.ring_count - Array.length t.ring)

let trace_events t =
  let cap = Array.length t.ring in
  let n = min t.ring_count cap in
  let start = if t.ring_count <= cap then 0 else t.ring_next in
  List.init n (fun i ->
      match t.ring.((start + i) mod cap) with
      | Some e -> e
      | None -> assert false)

let trace_json t =
  let evs =
    List.stable_sort
      (fun a b -> compare a.te_ts b.te_ts)
      (trace_events t)
  in
  let json_of_event e =
    let base =
      [
        ("name", Json.Str e.te_name);
        ("cat", Json.Str e.te_cat);
        ( "ph",
          Json.Str
            (match e.te_ph with Begin -> "B" | End -> "E" | Instant -> "i") );
        ("ts", Json.Int e.te_ts);
        ("pid", Json.Int 0);
        ("tid", Json.Int e.te_tid);
      ]
    in
    let base =
      match e.te_ph with
      | Instant -> base @ [ ("s", Json.Str "t") ]
      | _ -> base
    in
    let base =
      match e.te_args with [] -> base | a -> base @ [ ("args", Json.Obj a) ]
    in
    Json.Obj base
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map json_of_event evs));
      ("displayTimeUnit", Json.Str "ns");
      ( "otherData",
        Json.Obj
          [
            ("tool", Json.Str "pflrun --trace");
            ("dropped_events", Json.Int (trace_dropped t));
          ] );
    ]

let write_trace t ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Json.to_channel oc (trace_json t);
      output_char oc '\n')

(* ---- report ----------------------------------------------------------- *)

type row = {
  r_region : string;
  r_array : string;
  r_cycles : int array;  (** indexed by {!cause_index} *)
  r_total : int;
}

let rows t =
  Hashtbl.fold
    (fun (rid, aid) c acc ->
      {
        r_region = Names.name t.regions rid;
        r_array = Names.name t.arrays aid;
        r_cycles = Array.copy c;
        r_total = Array.fold_left ( + ) 0 c;
      }
      :: acc)
    t.matrix []
  |> List.sort (fun a b -> compare b.r_total a.r_total)

let attribution_json t =
  let row_json r =
    Json.Obj
      ([
         ("region", Json.Str r.r_region);
         ("array", Json.Str r.r_array);
         ("cycles", Json.Int r.r_total);
       ]
      @ Array.to_list
          (Array.mapi
             (fun i c -> (cause_name causes.(i), Json.Int c))
             r.r_cycles))
  in
  Json.Obj
    [
      ("total_stall_cycles", Json.Int t.total);
      ("attributed_cycles", Json.Int (attributed_stall t));
      ("unattributed_cycles", Json.Int t.unattributed);
      ("rows", Json.List (List.map row_json (rows t)));
    ]

let pct part whole =
  if whole = 0 then Float.nan else 100.0 *. float_of_int part /. float_of_int whole

let pp_pct ppf p =
  if Float.is_nan p then Format.fprintf ppf "   --"
  else Format.fprintf ppf "%5.1f" p

let pp_report ?(top = 12) ppf t =
  let rs = rows t in
  Format.fprintf ppf "cycle attribution (region x array)@.";
  Format.fprintf ppf "  total memory cycles  %d@." t.total;
  Format.fprintf ppf "  attributed           %d (%a%%)@." (attributed_stall t)
    pp_pct (pct (attributed_stall t) t.total);
  Format.fprintf ppf "  unattributed         %d (%a%%)@." t.unattributed
    pp_pct (pct t.unattributed t.total);
  if trace_dropped t > 0 then
    Format.fprintf ppf "  trace events dropped %d@." (trace_dropped t);
  let shown = if top >= 0 && List.length rs > top then top else List.length rs in
  Format.fprintf ppf "  %-26s %-18s %12s %6s  %s@." "REGION" "ARRAY" "CYCLES"
    "%TOT" "BREAKDOWN";
  List.iteri
    (fun i r ->
      if i < shown then begin
        let break =
          let parts = ref [] in
          Array.iteri
            (fun ci c ->
              if c > 0 then
                parts :=
                  Format.asprintf "%s %.0f%%" (cause_name causes.(ci))
                    (100.0 *. float_of_int c /. float_of_int r.r_total)
                  :: !parts)
            r.r_cycles;
          String.concat ", " (List.rev !parts)
        in
        Format.fprintf ppf "  %-26s %-18s %12d %a  %s@." r.r_region r.r_array
          r.r_total pp_pct (pct r.r_total t.total) break
      end)
    rs;
  if shown < List.length rs then
    Format.fprintf ppf "  ... %d more rows@." (List.length rs - shown)

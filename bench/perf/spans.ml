(* Host-time spans for the traced run, kept in memory and written out when
   the run ends. Every span records its name, start, end, the span that
   was open when it started (its parent) and the op it belongs to, so a
   layer's self time — its duration minus the part its child spans cover —
   can be summed per name afterwards. *)

module Json = Ddsm_core.Ddsm.Json

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** id of the enclosing span; [-1] for a root *)
  start : float;
  mutable stop : float;
  mutable children : float;  (** summed duration of direct children *)
}

type t = {
  mutable closed : span list;
  mutable open_ : span list;
  mutable next : int;
}

let now = Unix.gettimeofday
let create () = { closed = []; open_ = []; next = 0 }

let with_span t ~op name f =
  let parent = match t.open_ with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = t.next; name; op; parent; start = now (); stop = 0.; children = 0. }
  in
  t.next <- t.next + 1;
  t.open_ <- s :: t.open_;
  Fun.protect f ~finally:(fun () ->
      s.stop <- now ();
      t.open_ <- List.tl t.open_;
      (match t.open_ with
      | p :: _ -> p.children <- p.children +. (s.stop -. s.start)
      | [] -> ());
      t.closed <- s :: t.closed)

let duration s = s.stop -. s.start
let self s = duration s -. s.children

let fold t ~name f init =
  List.fold_left (fun acc s -> if s.name = name then f acc s else acc) init t.closed

let self_time t name = fold t ~name (fun acc s -> acc +. self s) 0.

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span; args carry the op id and the parent
   span id so the tree survives the export. *)
let to_json t =
  let spans = List.rev t.closed in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us x = Json.Float ((x -. t0) *. 1e6) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.Str s.name);
                   ("ph", Json.Str "X");
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ("ts", us s.start);
                   ("dur", Json.Float (duration s *. 1e6));
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Int s.id);
                         ("op", Json.Int s.op);
                         ("parent", Json.Int s.parent);
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", Json.Str "ms");
    ]

let write t ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Json.to_channel oc (to_json t);
      output_char oc '\n')

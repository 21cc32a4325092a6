(* The output oracle. Every op is checked against the prints of the
   reference interpreter (computed at set-up) and against the cycles and
   hardware counters of the same program's warm-up op; an observed op's
   sanitizer must also come back clean. A mismatch is a failed op with a
   reason, never an abort. *)

type observed = {
  prints : string list;
  cycles : int;
  counters : (string * int) list;  (** [Counters.to_assoc] of the run *)
  race_clean : bool;  (** [true] when no sanitizer was attached *)
}

let first_difference a b =
  let rec go i = function
    | x :: xs, y :: ys -> if x = y then go (i + 1) (xs, ys) else Some (i, x, y)
    | x :: _, [] -> Some (i, x, "<none>")
    | [], y :: _ -> Some (i, "<none>", y)
    | [], [] -> None
  in
  go 0 (a, b)

let counter_difference a b =
  List.find_map
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some w when w = v -> None
      | Some w -> Some (Printf.sprintf "counter %s: %d, warm-up %d" k v w)
      | None -> Some (Printf.sprintf "counter %s missing from warm-up" k))
    a

(* [expected] are the interpreter's prints; [reference] is the warm-up op's
   outcome, absent for the warm-up op itself. *)
let verdict ~expected ?reference (r : (observed, string) result) =
  match r with
  | Error e -> Error ("op failed: " ^ e)
  | Ok o -> (
      match first_difference o.prints expected with
      | Some (i, got, want) ->
          Error
            (Printf.sprintf "print %d is %S, the reference interpreter printed %S"
               i got want)
      | None -> (
          if not o.race_clean then Error "the sanitizer reported a race"
          else
            match reference with
            | None -> Ok ()
            | Some r when o.cycles <> r.cycles ->
                Error (Printf.sprintf "cycles %d, warm-up %d" o.cycles r.cycles)
            | Some r when o.counters <> r.counters ->
                Error
                  (Option.value
                     (counter_difference o.counters r.counters)
                     ~default:"counter set differs from warm-up")
            | Some _ -> Ok ()))

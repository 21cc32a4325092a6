type t = {
  seed : int;
  slow_nodes : (int * int) list;
  hot_dirs : (int * int) list;
  slow_links : ((int * int) * int) list;
  tlb_flush_period : int;
  redist_fail : int;
  migrate_fail : int;
  gather_fail : int;
  lose_wakeup : int;
  drop_barrier : int;
}

let none =
  {
    seed = 0;
    slow_nodes = [];
    hot_dirs = [];
    slow_links = [];
    tlb_flush_period = 0;
    redist_fail = 0;
    migrate_fail = 0;
    gather_fail = 0;
    lose_wakeup = 0;
    drop_barrier = 0;
  }

let is_none t = t = none

let make ?(seed = 0) ?(slow_nodes = []) ?(hot_dirs = []) ?(slow_links = [])
    ?(tlb_flush_period = 0) ?(redist_fail = 0) ?(migrate_fail = 0)
    ?(gather_fail = 0) ?(lose_wakeup = 0) ?(drop_barrier = 0) () =
  List.iter
    (fun (_, x) -> if x < 0 then invalid_arg "Fault.make: negative extra cycles")
    (slow_nodes @ hot_dirs);
  List.iter
    (fun (_, x) -> if x < 0 then invalid_arg "Fault.make: negative extra cycles")
    slow_links;
  if tlb_flush_period < 0 || redist_fail < 0 || migrate_fail < 0
     || gather_fail < 0 || lose_wakeup < 0 || drop_barrier < 0
  then invalid_arg "Fault.make: negative parameter";
  {
    seed;
    slow_nodes;
    hot_dirs;
    slow_links;
    tlb_flush_period;
    redist_fail;
    migrate_fail;
    gather_fail;
    lose_wakeup;
    drop_barrier;
  }

(* ------------------------------------------------------------------ *)
(* Deterministic pseudo-random plans (48-bit LCG; no Random dependency so
   plans are stable across OCaml versions) *)

let lcg st =
  let x = ((!st * 25214903917) + 11) land 0xFFFFFFFFFFFF in
  st := x;
  x lsr 17

let pick st n = if n <= 0 then 0 else lcg st mod n

let random ~seed ~nnodes =
  if nnodes < 1 then invalid_arg "Fault.random: nnodes < 1";
  let st = ref (seed lxor 0x5DEECE66D) in
  ignore (lcg st);
  let n_slow = pick st 3 in
  let slow_nodes =
    List.init n_slow (fun _ -> (pick st nnodes, 20 + pick st 100))
  in
  let hot_dirs =
    if pick st 2 = 0 then [] else [ (pick st nnodes, 20 + pick st 60) ]
  in
  let slow_links =
    if nnodes < 2 || pick st 2 = 0 then []
    else
      let a = pick st nnodes in
      let b = (a + 1 + pick st (nnodes - 1)) mod nnodes in
      [ ((a, b), 10 + pick st 40) ]
  in
  let tlb_flush_period = [| 0; 0; 64; 256; 1024 |].(pick st 5) in
  let redist_fail = [| 0; 0; 1; 2; 4 |].(pick st 5) in
  {
    seed;
    slow_nodes;
    hot_dirs;
    slow_links;
    tlb_flush_period;
    redist_fail;
    migrate_fail = 0;
    gather_fail = 0;
    lose_wakeup = 0;
    drop_barrier = 0;
  }

(* ------------------------------------------------------------------ *)
(* Queries *)

let sum_assoc key l =
  List.fold_left (fun acc (k, x) -> if k = key then acc + x else acc) 0 l

let mem_extra t ~node = sum_assoc node t.slow_nodes
let dir_extra t ~home = sum_assoc home t.hot_dirs

let link_extra t ~a ~b =
  if a = b then 0
  else
    List.fold_left
      (fun acc ((x, y), e) ->
        if (x = a && y = b) || (x = b && y = a) then acc + e else acc)
      0 t.slow_links

(* ------------------------------------------------------------------ *)
(* One machine's event counts *)

type event =
  | Migration
  | Redist_attempt
  | Gather_fetch
  | Wakeup
  | Barrier_arrival

type counts = {
  plan : t;
  translations : int array;  (* per processor *)
  seen : int array;  (* per event kind, indexed by [slot] *)
}

let slot = function
  | Migration -> 0
  | Redist_attempt -> 1
  | Gather_fetch -> 2
  | Wakeup -> 3
  | Barrier_arrival -> 4

let counts plan ~nprocs =
  { plan; translations = Array.make nprocs 0; seen = Array.make 5 0 }

let count c ev = c.seen.(slot ev)
let translations c ~proc = c.translations.(proc)

(* Every count is 1-based: the event being counted is number [n]. *)
let fails c ev =
  let i = slot ev in
  let n = c.seen.(i) + 1 in
  c.seen.(i) <- n;
  let p = c.plan in
  match ev with
  (* a page migration or gather fetch fails from the Nth on, so the
     failure lands in the MIDDLE of a bulk migration (exercising its
     rollback) or once gather schedules are warm, and persists *)
  | Migration -> p.migrate_fail > 0 && n >= p.migrate_fail
  | Gather_fetch -> p.gather_fail > 0 && n >= p.gather_fail
  | Redist_attempt -> n <= p.redist_fail
  | Wakeup -> n = p.lose_wakeup
  | Barrier_arrival -> n = p.drop_barrier

let schedules c ev =
  let p = c.plan in
  match ev with
  | Migration -> p.migrate_fail > 0
  | Gather_fetch -> p.gather_fail > 0
  | Redist_attempt -> p.redist_fail > 0
  | Wakeup -> p.lose_wakeup > 0
  | Barrier_arrival -> p.drop_barrier > 0

(* translations are counted only under a flush period: nothing else reads
   them *)
let flush_tlb c ~proc =
  let period = c.plan.tlb_flush_period in
  period > 0
  &&
  let n = c.translations.(proc) + 1 in
  c.translations.(proc) <- n;
  n mod period = 0

(* ------------------------------------------------------------------ *)
(* Spec syntax *)

let to_spec t =
  if is_none t then "none"
  else
    let parts =
      (if t.seed <> 0 then [ Printf.sprintf "seed=%d" t.seed ] else [])
      @ List.map (fun (n, e) -> Printf.sprintf "slow=%d:%d" n e) t.slow_nodes
      @ List.map (fun (n, e) -> Printf.sprintf "hotdir=%d:%d" n e) t.hot_dirs
      @ List.map
          (fun ((a, b), e) -> Printf.sprintf "link=%d-%d:%d" a b e)
          t.slow_links
      @ (if t.tlb_flush_period > 0 then
           [ Printf.sprintf "tlb=%d" t.tlb_flush_period ]
         else [])
      @ (if t.redist_fail > 0 then
           [ Printf.sprintf "redist-fail=%d" t.redist_fail ]
         else [])
      @ (if t.migrate_fail > 0 then
           [ Printf.sprintf "migrate-fail=%d" t.migrate_fail ]
         else [])
      @ (if t.gather_fail > 0 then
           [ Printf.sprintf "gather-fail=%d" t.gather_fail ]
         else [])
      @ (if t.lose_wakeup > 0 then
           [ Printf.sprintf "lose-wakeup=%d" t.lose_wakeup ]
         else [])
      @
      if t.drop_barrier > 0 then
        [ Printf.sprintf "drop-barrier=%d" t.drop_barrier ]
      else []
    in
    String.concat "," parts

let of_spec s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok none
  else
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let clauses = String.split_on_char ',' s in
    let rec go acc = function
      | [] -> Ok acc
      | clause :: rest -> (
          match String.index_opt clause '=' with
          | None -> err "fault spec clause %S: expected key=value" clause
          | Some i -> (
              let key = String.sub clause 0 i in
              let v = String.sub clause (i + 1) (String.length clause - i - 1) in
              let int_v () = int_of_string_opt v in
              match key with
              | "seed" -> (
                  match int_v () with
                  | Some n -> go { acc with seed = n } rest
                  | None -> err "fault spec: seed=%S is not an integer" v)
              | "slow" -> (
                  match Scanf.sscanf_opt v "%d:%d" (fun a b -> (a, b)) with
                  | Some (n, e) when n >= 0 && e >= 0 ->
                      go { acc with slow_nodes = acc.slow_nodes @ [ (n, e) ] } rest
                  | _ -> err "fault spec: slow=%S wants NODE:EXTRA" v)
              | "hotdir" -> (
                  match Scanf.sscanf_opt v "%d:%d" (fun a b -> (a, b)) with
                  | Some (n, e) when n >= 0 && e >= 0 ->
                      go { acc with hot_dirs = acc.hot_dirs @ [ (n, e) ] } rest
                  | _ -> err "fault spec: hotdir=%S wants NODE:EXTRA" v)
              | "link" -> (
                  match Scanf.sscanf_opt v "%d-%d:%d" (fun a b e -> (a, b, e)) with
                  | Some (a, b, e) when a >= 0 && b >= 0 && e >= 0 && a <> b ->
                      go
                        { acc with slow_links = acc.slow_links @ [ ((a, b), e) ] }
                        rest
                  | _ -> err "fault spec: link=%S wants A-B:EXTRA" v)
              | "tlb" -> (
                  match int_v () with
                  | Some n when n >= 0 -> go { acc with tlb_flush_period = n } rest
                  | _ -> err "fault spec: tlb=%S wants a period >= 0" v)
              | "redist-fail" -> (
                  match int_v () with
                  | Some n when n >= 0 -> go { acc with redist_fail = n } rest
                  | _ -> err "fault spec: redist-fail=%S wants a count >= 0" v)
              | "migrate-fail" -> (
                  match int_v () with
                  | Some n when n >= 0 -> go { acc with migrate_fail = n } rest
                  | _ -> err "fault spec: migrate-fail=%S wants a count >= 0" v)
              | "gather-fail" -> (
                  match int_v () with
                  | Some n when n >= 0 -> go { acc with gather_fail = n } rest
                  | _ -> err "fault spec: gather-fail=%S wants a count >= 0" v)
              | "lose-wakeup" -> (
                  match int_v () with
                  | Some n when n >= 0 -> go { acc with lose_wakeup = n } rest
                  | _ -> err "fault spec: lose-wakeup=%S wants a count >= 0" v)
              | "drop-barrier" -> (
                  match int_v () with
                  | Some n when n >= 0 -> go { acc with drop_barrier = n } rest
                  | _ -> err "fault spec: drop-barrier=%S wants a count >= 0" v)
              | "random" -> (
                  match Scanf.sscanf_opt v "%d:%d" (fun a b -> (a, b)) with
                  | Some (seed, nnodes) when nnodes >= 1 ->
                      go (random ~seed ~nnodes) rest
                  | _ -> err "fault spec: random=%S wants SEED:NNODES" v)
              | k -> err "fault spec: unknown key %S" k))
    in
    go none clauses

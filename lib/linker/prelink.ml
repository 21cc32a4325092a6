open Ddsm_ir
module Sema = Ddsm_sema.Sema

type linked = {
  routines : (string * Sema.env) list;
  main : string;
  clones : (string * string) list;
  recompilations : int;
}

(* --- §6 link-time common-block consistency --- *)

let pp_shape shape = String.concat "x" (List.map string_of_int shape)

(* where each routine was defined, so consistency errors carry a source
   location like every frontend/sema rejection does *)
let routine_locs (objs : Objfile.t list) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (o : Objfile.t) ->
      List.iter
        (fun (u : Objfile.unit_) ->
          Hashtbl.replace tbl u.Objfile.uname
            u.Objfile.env.Sema.routine.Decl.rloc)
        o.Objfile.units)
    objs;
  fun r ->
    match Hashtbl.find_opt tbl r with
    | Some loc -> Ddsm_ir.Loc.to_string loc ^ ": "
    | None -> ""

let check_commons (objs : Objfile.t list) =
  let loc_of = routine_locs objs in
  let decls = Hashtbl.create 8 in
  List.iter
    (fun (o : Objfile.t) ->
      List.iter
        (fun (blk, routine, members) ->
          Hashtbl.replace decls blk
            (Option.value ~default:[] (Hashtbl.find_opt decls blk)
            @ [ (routine, members) ]))
        o.Objfile.shadow.Shadow.commons)
    objs;
  let errors = ref [] in
  Hashtbl.iter
    (fun blk decl_list ->
      let has_reshaped =
        List.exists
          (fun (_, ms) -> List.exists (fun m -> m.Shadow.cm_dist <> None) ms)
          decl_list
      in
      (* "common blocks without reshaped arrays are not affected" *)
      if has_reshaped then
        match decl_list with
        | [] -> ()
        | (ref_routine, ref_members) :: rest ->
            List.iter
              (fun (routine, members) ->
                (* every reshaped member must appear at the same offset with
                   the same shape and distribution on both sides *)
                let index ms =
                  List.filter_map
                    (fun m ->
                      if m.Shadow.cm_dist <> None then Some (m.Shadow.cm_offset, m)
                      else None)
                    ms
                in
                let check_against ~side_a ~side_b a_name b_name =
                  List.iter
                    (fun (off, (ma : Shadow.common_member)) ->
                      match
                        List.find_opt
                          (fun (m : Shadow.common_member) -> m.Shadow.cm_offset = off)
                          side_b
                      with
                      | None ->
                          errors :=
                            Printf.sprintf
                              "%scommon /%s/: reshaped array %s (offset %d) \
                               in %s has no counterpart in %s"
                              (loc_of a_name) blk ma.Shadow.cm_name off a_name
                              b_name
                            :: !errors
                      | Some mb ->
                          if mb.Shadow.cm_shape <> ma.Shadow.cm_shape then
                            errors :=
                              Printf.sprintf
                                "%scommon /%s/: reshaped array %s declared %s \
                                 in %s but %s in %s"
                                (loc_of a_name) blk ma.Shadow.cm_name
                                (pp_shape ma.Shadow.cm_shape) a_name
                                (pp_shape mb.Shadow.cm_shape) b_name
                              :: !errors
                          else if
                            not
                              (match (ma.Shadow.cm_dist, mb.Shadow.cm_dist) with
                              | Some da, Some db ->
                                  Sig_.equal [ Some da ] [ Some db ]
                              | _ -> false)
                          then
                            errors :=
                              Printf.sprintf
                                "%scommon /%s/: array %s has inconsistent \
                                 reshaped distributions in %s and %s"
                                (loc_of a_name) blk ma.Shadow.cm_name a_name
                                b_name
                              :: !errors)
                    side_a
                in
                let ra = index ref_members and rb = index members in
                check_against ~side_a:ra ~side_b:(List.map snd rb) ref_routine
                  routine;
                check_against ~side_a:rb ~side_b:(List.map snd ra) routine
                  ref_routine)
              rest)
    decls;
  List.rev !errors

(* --- call-site rewriting --- *)

let rewrite_calls env (stmts : Stmt.t list) : Stmt.t list * (string * Sig_.t) list
    =
  let needed = ref [] in
  let note n s = if not (List.mem (n, s) !needed) then needed := (n, s) :: !needed in
  let rec go (t : Stmt.t) : Stmt.t =
    match t.Stmt.s with
    | Stmt.Call (n, args) ->
        let sg = Objfile.call_signature env args in
        if Sig_.is_trivial sg then t
        else begin
          note n sg;
          { t with Stmt.s = Stmt.Call (Sig_.mangle n sg, args) }
        end
    | _ -> Stmt.map_bodies (List.map go) t
  in
  let out = List.map go stmts in
  (out, !needed)

(* --- the linking fixpoint --- *)

let link (objs : Objfile.t list) =
  let errors = ref (check_commons objs) in
  (* routine table: name -> (owning object, unit) *)
  let table : (string, Objfile.t * Objfile.unit_) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (o : Objfile.t) ->
      List.iter
        (fun (u : Objfile.unit_) ->
          match Hashtbl.find_opt table u.Objfile.uname with
          | Some (_, u0) ->
              let loc (u : Objfile.unit_) =
                Loc.to_string u.Objfile.env.Sema.routine.Decl.rloc
              in
              errors :=
                Printf.sprintf "routine %s defined in more than one file: %s and %s"
                  u.Objfile.uname (loc u0) (loc u)
                :: !errors
          | None -> Hashtbl.replace table u.Objfile.uname (o, u))
        o.Objfile.units)
    objs;
  let clones = ref [] in
  let recompilations = ref 0 in
  let out : (string * Sema.env) list ref = ref [] in
  let processed = Hashtbl.create 32 in
  (* worklist of routine names to process (rewrite + clone transitively) *)
  let rec process name =
    if (not (Hashtbl.mem processed name)) && !errors = [] then begin
      Hashtbl.replace processed name ();
      match Hashtbl.find_opt table name with
      | None -> errors := Printf.sprintf "unresolved routine %s" name :: !errors
      | Some (_owner, { Objfile.env; _ }) ->
          let r = env.Sema.routine in
          let body, needed = rewrite_calls env r.Decl.rbody in
          out :=
            (name, { env with Sema.routine = { r with Decl.rbody = body } })
            :: !out;
          let mangled_names = List.map (fun (n, sg) -> Sig_.mangle n sg) needed in
          (* instantiate clones first, then resolve the remaining callees *)
          List.iter
            (fun (callee, sg) ->
              let mangled = Sig_.mangle callee sg in
              if not (Hashtbl.mem table mangled) then begin
                (* clone request: re-invoke compilation on the defining
                   object (§5) *)
                match Hashtbl.find_opt table callee with
                | None ->
                    errors :=
                      Printf.sprintf "unresolved routine %s (reshaped call from %s)"
                        callee name
                      :: !errors
                | Some (def_obj, _) -> (
                    incr recompilations;
                    match
                      Objfile.compile_clone def_obj ~original:callee
                        ~clone:mangled ~sig_:sg
                    with
                    | Error es ->
                        errors :=
                          List.map
                            (fun e -> Printf.sprintf "cloning %s: %s" callee e)
                            es
                          @ !errors
                    | Ok cu ->
                        Hashtbl.replace table mangled (def_obj, cu);
                        clones := (callee, mangled) :: !clones)
              end;
              if !errors = [] then process mangled)
            needed;
          List.iter (fun callee -> process callee)
            (Stmt.calls_made body
            |> List.filter (fun c -> not (List.mem c mangled_names)))
    end
  in
  (* main program unit *)
  let mains =
    List.concat_map
      (fun (o : Objfile.t) ->
        List.filter_map
          (fun (u : Objfile.unit_) ->
            if u.Objfile.env.Sema.routine.Decl.rkind = Decl.Program then
              Some u.Objfile.uname
            else None)
        o.Objfile.units)
      objs
  in
  (match mains with
  | [ m ] -> process m
  | [] -> errors := "no program unit found" :: !errors
  | ms ->
      errors :=
        Printf.sprintf "multiple program units: %s" (String.concat ", " ms)
        :: !errors);
  (* a linker links every routine in its objects, called or not.
     [process] adds clones to [table], so the sweep walks a snapshot of
     the names, in the table's own order; a clone made here is processed
     as soon as it is made. *)
  List.iter
    (fun name -> if !errors = [] then process name)
    (List.rev (Hashtbl.fold (fun name _ acc -> name :: acc) table []));
  if !errors <> [] then Error (List.rev !errors)
  else
    Ok
      {
        routines = List.rev !out;
        main = List.hd mains;
        clones = List.rev !clones;
        recompilations = !recompilations;
      }

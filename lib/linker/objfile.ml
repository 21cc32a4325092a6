open Ddsm_ir
module Sema = Ddsm_sema.Sema
module Flags = Ddsm_transform.Flags
module Pipeline = Ddsm_transform.Pipeline

type unit_ = { uname : string; env : Sema.env }

type t = {
  src : Decl.file;
  flags : Flags.t;
  units : unit_ list;
  shadow : Shadow.t;
}

let call_signature env args =
  List.map
    (fun arg ->
      match arg with
      | Expr.Var a -> (
          match Sema.find_array env a with
          | Some { Sema.ai_dist = Some d; _ } when d.Decl.dreshape ->
              Some { Sig_.kinds = d.Decl.dkinds; onto = d.Decl.donto }
          | _ -> None)
      | _ -> None)
    args

(* first occurrences, in order *)
let distinct l =
  List.rev (List.fold_left (fun acc e -> if List.mem e acc then acc else e :: acc) [] l)

(* reshaped call signatures of a body, in source order *)
let reshaped_calls env (stmts : Stmt.t list) =
  Stmt.fold
    (fun acc t ->
      match t.Stmt.s with
      | Stmt.Call (n, args) ->
          let sg = call_signature env args in
          if Sig_.is_trivial sg then acc else (n, sg) :: acc
      | _ -> acc)
    [] stmts
  |> List.rev

let common_members env members =
  let off = ref 0 in
  List.map
    (fun name ->
      let shape, dist =
        match Sema.find_array env name with
        | Some ai ->
            let shape =
              match ai.Sema.ai_const_shape with
              | Some (_, ext) -> Array.to_list ext
              | None -> []
            in
            let dist =
              match ai.Sema.ai_dist with
              | Some d when d.Decl.dreshape ->
                  Some { Sig_.kinds = d.Decl.dkinds; onto = d.Decl.donto }
              | _ -> None
            in
            (shape, dist)
        | None -> ([ 1 ], None)
      in
      let m =
        {
          Shadow.cm_name = name;
          cm_offset = !off;
          cm_shape = shape;
          cm_dist = dist;
        }
      in
      off := !off + max 1 (List.fold_left ( * ) 1 shape);
      m)
    members

let formal_sig (env : Sema.env) =
  List.map
    (fun p ->
      match Sema.find_array env p with
      | Some { Sema.ai_dist = Some d; _ } when d.Decl.dreshape ->
          Some { Sig_.kinds = d.Decl.dkinds; onto = d.Decl.donto }
      | _ -> None)
    env.Sema.routine.Decl.rparams

(* built from the analysed bodies: lowering copies loop bodies (peeling),
   which could reorder the call lines *)
let build_shadow (envs : Sema.env list) =
  let name (env : Sema.env) = env.Sema.routine.Decl.rname in
  {
    Shadow.defs = distinct (List.map (fun env -> (name env, formal_sig env)) envs);
    calls =
      distinct
        (List.concat_map
           (fun (env : Sema.env) -> reshaped_calls env env.Sema.routine.Decl.rbody)
           envs);
    commons =
      List.concat_map
        (fun (env : Sema.env) ->
          List.map
            (fun (blk, members) -> (blk, name env, common_members env members))
            env.Sema.routine.Decl.rcommons)
        envs;
  }

let lower flags (env : Sema.env) = { env with Sema.routine = Pipeline.run flags env }

let compile ?(flags = Flags.all_on) (file : Decl.file) =
  match Sema.analyse_file file with
  | Error es -> Error es
  | Ok envs ->
      let shadow = build_shadow envs in
      let units =
        List.map
          (fun (env : Sema.env) ->
            { uname = env.Sema.routine.Decl.rname; env = lower flags env })
          envs
      in
      Ok { src = file; flags; units; shadow }

let compile_clone t ~original ~clone ~sig_ =
  match Decl.find_routine t.src original with
  | None ->
      Error [ Printf.sprintf "clone request: %s is not defined in %s" original t.src.Decl.fname ]
  | Some r ->
      if List.length r.Decl.rparams <> List.length sig_ then
        Error
          [
            Printf.sprintf
              "clone request for %s: %d signature entries for %d formals"
              original (List.length sig_)
              (List.length r.Decl.rparams);
          ]
      else begin
        let new_dists =
          List.filter_map
            (fun (p, arg) ->
              match arg with
              | None -> None
              | Some a ->
                  Some
                    {
                      Decl.dtarget = p;
                      dkinds = a.Sig_.kinds;
                      donto = a.Sig_.onto;
                      dreshape = true;
                      dloc = r.Decl.rloc;
                    })
            (List.combine r.Decl.rparams sig_)
        in
        let formals = r.Decl.rparams in
        let keep_dist (d : Decl.dist) = not (List.mem d.Decl.dtarget formals) in
        let clone_r =
          {
            r with
            Decl.rname = clone;
            rdists = List.filter keep_dist r.Decl.rdists @ new_dists;
          }
        in
        Sema.analyse_routine ~allow_formal_dists:true clone_r
        |> Result.map (fun env -> { uname = clone; env = lower t.flags env })
      end

(* Objects ride the hardened Binfile container: magic/kind/version header,
   payload digest, atomic temp-file+rename install. A truncated, stale or
   foreign .pfo is a located [Error], never a Marshal crash. *)

let save t ~path = Binfile.save ~kind:"object" ~path t

let load ~path : (t, string) result = Binfile.load ~kind:"object" ~path

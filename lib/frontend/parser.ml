open Ddsm_ir
module K = Ddsm_dist.Kind

type st = { toks : Lexer.located array; mutable pos : int; fname : string }

exception Perror of Loc.t * string

let loc st =
  let line =
    if st.pos < Array.length st.toks then st.toks.(st.pos).Lexer.line else 0
  in
  Loc.v ~file:st.fname ~line

let err st fmt =
  Format.kasprintf (fun msg -> raise (Perror (loc st, msg))) fmt

let peek st = st.toks.(st.pos).Lexer.tok
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).Lexer.tok
  else Token.TEof

let advance st = st.pos <- st.pos + 1

let next st =
  let t = peek st in
  advance st;
  t

let accept st tok = if peek st = tok then (advance st; true) else false

let expect st tok =
  if not (accept st tok) then
    err st "expected %s but found %s" (Token.to_string tok)
      (Token.to_string (peek st))

let accept_ident st name =
  match peek st with
  | Token.TIdent x when x = name ->
      advance st;
      true
  | _ -> false

let expect_ident st name =
  if not (accept_ident st name) then
    err st "expected %s but found %s" name (Token.to_string (peek st))

let ident st =
  match next st with
  | Token.TIdent x -> x
  | t -> err st "expected an identifier but found %s" (Token.to_string t)

let int_lit st =
  match next st with
  | Token.TInt n -> n
  | t -> err st "expected an integer literal but found %s" (Token.to_string t)

let newline st = expect st Token.TNewline
let skip_newlines st = while accept st Token.TNewline do () done

(* ------------------------------------------------------------------ *)
(* Expressions *)

let rec parse_expr st = parse_or st

and parse_or st =
  let e = ref (parse_and st) in
  while accept st Token.TOr do
    e := Expr.Log (Expr.Or, !e, parse_and st)
  done;
  !e

and parse_and st =
  let e = ref (parse_not st) in
  while accept st Token.TAnd do
    e := Expr.Log (Expr.And, !e, parse_not st)
  done;
  !e

and parse_not st =
  if accept st Token.TNot then Expr.Not (parse_not st) else parse_rel st

and parse_rel st =
  let e = parse_add st in
  match peek st with
  | Token.TRel op ->
      advance st;
      Expr.Rel (op, e, parse_add st)
  | _ -> e

and parse_add st =
  let e = ref (parse_mul st) in
  let rec go () =
    if accept st Token.TPlus then begin
      e := Expr.Bin (Expr.Add, !e, parse_mul st);
      go ()
    end
    else if accept st Token.TMinus then begin
      e := Expr.Bin (Expr.Sub, !e, parse_mul st);
      go ()
    end
  in
  go ();
  !e

and parse_mul st =
  let e = ref (parse_unary st) in
  let rec go () =
    if accept st Token.TStar then begin
      e := Expr.Bin (Expr.Mul, !e, parse_unary st);
      go ()
    end
    else if accept st Token.TSlash then begin
      e := Expr.Bin (Expr.Div, !e, parse_unary st);
      go ()
    end
  in
  go ();
  !e

and parse_unary st =
  if accept st Token.TMinus then Expr.Neg (parse_unary st)
  else if accept st Token.TPlus then parse_unary st
  else parse_power st

and parse_power st =
  let base = parse_primary st in
  if accept st Token.TPow then Expr.Bin (Expr.Pow, base, parse_unary st)
  else base

and parse_primary st =
  match next st with
  | Token.TInt n -> Expr.Int n
  | Token.TReal f -> Expr.Real f
  | Token.TStr s -> Expr.Str s
  | Token.TIdent x ->
      if peek st = Token.TLparen then begin
        advance st;
        let args = parse_args st in
        expect st Token.TRparen;
        Expr.Ref (x, args)
      end
      else Expr.Var x
  | Token.TLparen ->
      let e = parse_expr st in
      expect st Token.TRparen;
      e
  | t -> err st "unexpected %s in expression" (Token.to_string t)

and parse_args st =
  if peek st = Token.TRparen then []
  else
    let rec go acc =
      let e = parse_expr st in
      if accept st Token.TComma then go (e :: acc) else List.rev (e :: acc)
    in
    go []

(* ------------------------------------------------------------------ *)
(* Distribution specs *)

let parse_dist_kind st =
  if accept st Token.TStar then K.Star
  else
    match next st with
    | Token.TIdent "block" -> K.Block
    | Token.TIdent "cyclic" ->
        if accept st Token.TLparen then begin
          let neg = accept st Token.TMinus in
          let k = int_lit st in
          let k = if neg then -k else k in
          expect st Token.TRparen;
          if k < 1 then err st "cyclic(%d): chunk size must be >= 1" k;
          K.normalise (K.Cyclic_k k)
        end
        else K.Cyclic
    | t -> err st "expected a distribution kind but found %s" (Token.to_string t)

let parse_dist_kinds st =
  expect st Token.TLparen;
  let rec go acc =
    let k = parse_dist_kind st in
    if accept st Token.TComma then go (k :: acc) else List.rev (k :: acc)
  in
  let kinds = go [] in
  expect st Token.TRparen;
  kinds

let parse_onto_opt st =
  if accept_ident st "onto" then begin
    expect st Token.TLparen;
    let rec go acc =
      let n = int_lit st in
      if accept st Token.TComma then go (n :: acc) else List.rev (n :: acc)
    in
    let ws = go [] in
    expect st Token.TRparen;
    Some ws
  end
  else None

(* [procs(N)] on c$redistribute: resize the onto-grid to N processors *)
let parse_procs_opt st =
  if accept_ident st "procs" then begin
    expect st Token.TLparen;
    let n = int_lit st in
    expect st Token.TRparen;
    Some n
  end
  else None

(* one c$distribute[_reshape] line may name several arrays *)
let parse_distribute st ~reshape =
  let dloc = loc st in
  let rec go acc =
    let target = ident st in
    let kinds = parse_dist_kinds st in
    let onto = parse_onto_opt st in
    let d =
      {
        Decl.dtarget = target;
        dkinds = kinds;
        donto = onto;
        dreshape = reshape;
        dloc;
      }
    in
    if accept st Token.TComma then go (d :: acc) else List.rev (d :: acc)
  in
  let ds = go [] in
  newline st;
  ds

(* ------------------------------------------------------------------ *)
(* Declarations *)

let parse_declarators st ~ty =
  let vloc = loc st in
  let rec go acc =
    let name = ident st in
    let dims =
      if accept st Token.TLparen then begin
        let rec dims acc =
          let e1 = parse_expr st in
          let d =
            if accept st Token.TColon then
              { Decl.dlo = e1; dhi = parse_expr st }
            else { Decl.dlo = Expr.Int 1; dhi = e1 }
          in
          if accept st Token.TComma then dims (d :: acc) else List.rev (d :: acc)
        in
        let ds = dims [] in
        expect st Token.TRparen;
        ds
      end
      else []
    in
    let v = { Decl.vname = name; vty = ty; vdims = dims; vloc } in
    if accept st Token.TComma then go (v :: acc) else List.rev (v :: acc)
  in
  let vs = go [] in
  newline st;
  vs

let parse_parameter st =
  expect st Token.TLparen;
  let rec go acc =
    let name = ident st in
    expect st Token.TAssign;
    let e = parse_expr st in
    if accept st Token.TComma then go ((name, e) :: acc)
    else List.rev ((name, e) :: acc)
  in
  let ps = go [] in
  expect st Token.TRparen;
  newline st;
  ps

let parse_common st =
  expect st Token.TSlash;
  let block = ident st in
  expect st Token.TSlash;
  let rec go acc =
    let n = ident st in
    if accept st Token.TComma then go (n :: acc) else List.rev (n :: acc)
  in
  let names = go [] in
  newline st;
  (block, names)

let parse_equivalence st =
  let rec pair_list acc =
    expect st Token.TLparen;
    let a = ident st in
    expect st Token.TComma;
    let b = ident st in
    expect st Token.TRparen;
    let acc = (a, b) :: acc in
    if accept st Token.TComma then pair_list acc else List.rev acc
  in
  let ps = pair_list [] in
  newline st;
  ps

(* ------------------------------------------------------------------ *)
(* Statements *)

(* "end" followed by kw, or the fused "endkw" *)
let at_end_kw st kw =
  match peek st with
  | Token.TIdent x when x = "end" ^ kw -> true
  | Token.TIdent "end" -> ( match peek2 st with Token.TIdent x -> x = kw | _ -> false)
  | _ -> false

let eat_end_kw st kw =
  match next st with
  | Token.TIdent x when x = "end" ^ kw -> newline st
  | Token.TIdent "end" ->
      expect_ident st kw;
      newline st
  | t -> err st "expected end %s but found %s" kw (Token.to_string t)

let at_bare_end st =
  match peek st with
  | Token.TIdent "end" -> ( match peek2 st with Token.TNewline -> true | _ -> false)
  | _ -> false

let rec parse_stmts st ~stop =
  let acc = ref [] in
  skip_newlines st;
  while (not (stop st)) && peek st <> Token.TEof do
    acc := parse_stmt st :: !acc;
    skip_newlines st
  done;
  List.rev !acc

and parse_stmt st =
  let l = loc st in
  match peek st with
  | Token.TDirective "doacross" ->
      advance st;
      parse_doacross st l
  | Token.TDirective "redistribute" ->
      advance st;
      let rarray = ident st in
      let kinds = parse_dist_kinds st in
      let onto = parse_onto_opt st in
      let procs = parse_procs_opt st in
      newline st;
      Stmt.mk ~loc:l
        (Stmt.Redistribute
           { rarray; rkinds = kinds; ronto = onto; rprocs = procs })
  | Token.TDirective "barrier" ->
      advance st;
      newline st;
      Stmt.mk ~loc:l Stmt.Barrier
  | Token.TDirective d -> err st "unexpected directive c$%s here" d
  | Token.TIdent "do" ->
      advance st;
      Stmt.mk ~loc:l (Stmt.Do (parse_do st))
  | Token.TIdent "if" ->
      advance st;
      parse_if st l
  | Token.TIdent "call" ->
      advance st;
      let name = ident st in
      let args =
        if accept st Token.TLparen then begin
          let a = parse_args st in
          expect st Token.TRparen;
          a
        end
        else []
      in
      newline st;
      Stmt.mk ~loc:l (Stmt.Call (name, args))
  | Token.TIdent "print" ->
      advance st;
      ignore (accept st Token.TStar);
      ignore (accept st Token.TComma);
      let items =
        if peek st = Token.TNewline then []
        else
          let rec go acc =
            let e = parse_expr st in
            if accept st Token.TComma then go (e :: acc) else List.rev (e :: acc)
          in
          go []
      in
      newline st;
      Stmt.mk ~loc:l (Stmt.Print items)
  | Token.TIdent "return" ->
      advance st;
      newline st;
      Stmt.mk ~loc:l Stmt.Return
  | Token.TIdent "stop" ->
      advance st;
      newline st;
      Stmt.mk ~loc:l Stmt.Return
  | Token.TIdent "continue" ->
      advance st;
      newline st;
      Stmt.mk ~loc:l Stmt.Continue
  | Token.TIdent _ -> parse_assignment st l
  | t -> err st "unexpected %s at start of statement" (Token.to_string t)

and parse_assignment st l =
  let name = ident st in
  let lhs =
    if accept st Token.TLparen then begin
      let subs = parse_args st in
      expect st Token.TRparen;
      Stmt.LRef (name, subs)
    end
    else Stmt.LVar name
  in
  expect st Token.TAssign;
  let e = parse_expr st in
  newline st;
  Stmt.mk ~loc:l (Stmt.Assign (lhs, e))

and parse_do st =
  let var = ident st in
  expect st Token.TAssign;
  let lo = parse_expr st in
  expect st Token.TComma;
  let hi = parse_expr st in
  let step = if accept st Token.TComma then Some (parse_expr st) else None in
  newline st;
  let body = parse_stmts st ~stop:(fun st -> at_end_kw st "do") in
  eat_end_kw st "do";
  { Stmt.var; lo; hi; step; body }

and parse_if st l =
  expect st Token.TLparen;
  let cond = parse_expr st in
  expect st Token.TRparen;
  if accept_ident st "then" then begin
    newline st;
    let stop st =
      at_end_kw st "if"
      || (match peek st with
         | Token.TIdent ("else" | "elseif") -> true
         | _ -> false)
    in
    let then_ = parse_stmts st ~stop in
    let finish () =
      match peek st with
      | Token.TIdent "elseif" ->
          advance st;
          let nested = parse_if st (loc st) in
          [ nested ]
      | Token.TIdent "else" when peek2 st = Token.TIdent "if" ->
          advance st;
          advance st;
          let nested = parse_if st (loc st) in
          [ nested ]
      | Token.TIdent "else" ->
          advance st;
          newline st;
          let els = parse_stmts st ~stop:(fun st -> at_end_kw st "if") in
          eat_end_kw st "if";
          els
      | _ ->
          eat_end_kw st "if";
          []
    in
    let else_ = finish () in
    Stmt.mk ~loc:l (Stmt.If (cond, then_, else_))
  end
  else
    (* one-line if *)
    let body = parse_stmt st in
    Stmt.mk ~loc:l (Stmt.If (cond, [ body ], []))

and parse_doacross st l =
  let locals = ref [] in
  let shareds = ref [] in
  let nest_vars = ref [] in
  let affinity = ref None in
  let sched = ref Stmt.Simple in
  let onto = ref None in
  let parse_ident_list () =
    expect st Token.TLparen;
    let rec go acc =
      let x = ident st in
      if accept st Token.TComma then go (x :: acc) else List.rev (x :: acc)
    in
    let l = go [] in
    expect st Token.TRparen;
    l
  in
  let rec clauses () =
    ignore (accept st Token.TComma);
    match peek st with
    | Token.TNewline -> advance st
    | Token.TIdent "local" ->
        advance st;
        locals := !locals @ parse_ident_list ();
        clauses ()
    | Token.TIdent "shared" ->
        advance st;
        shareds := !shareds @ parse_ident_list ();
        clauses ()
    | Token.TIdent "nest" ->
        advance st;
        nest_vars := parse_ident_list ();
        clauses ()
    | Token.TIdent "onto" ->
        advance st;
        expect st Token.TLparen;
        let rec go acc =
          let n = int_lit st in
          if accept st Token.TComma then go (n :: acc) else List.rev (n :: acc)
        in
        let ws = go [] in
        expect st Token.TRparen;
        onto := Some ws;
        clauses ()
    | Token.TIdent "schedtype" ->
        advance st;
        expect st Token.TLparen;
        (match ident st with
        | "simple" -> sched := Stmt.Simple
        | "interleave" ->
            let k =
              if accept st Token.TLparen then begin
                let k = int_lit st in
                expect st Token.TRparen;
                k
              end
              else 1
            in
            sched := Stmt.Interleave k
        | s -> err st "unknown schedtype %s" s);
        expect st Token.TRparen;
        clauses ()
    | Token.TIdent "affinity" ->
        advance st;
        let avars = parse_ident_list () in
        expect st Token.TAssign;
        expect_ident st "data";
        expect st Token.TLparen;
        let aarray = ident st in
        expect st Token.TLparen;
        let asubs = parse_args st in
        expect st Token.TRparen;
        expect st Token.TRparen;
        affinity := Some { Stmt.avars; aarray; asubs };
        clauses ()
    | t -> err st "unknown doacross clause starting with %s" (Token.to_string t)
  in
  clauses ();
  skip_newlines st;
  expect_ident st "do";
  let loop = parse_do st in
  Stmt.mk ~loc:l
    (Stmt.Doacross
       {
         locals = !locals;
         shareds = !shareds;
         affinity = !affinity;
         sched = !sched;
         d_onto = !onto;
         nest_vars = !nest_vars;
         loop;
       })

(* ------------------------------------------------------------------ *)
(* Routines and files *)

let parse_routine st =
  skip_newlines st;
  let rloc = loc st in
  let rkind =
    match next st with
    | Token.TIdent "program" -> Decl.Program
    | Token.TIdent "subroutine" -> Decl.Subroutine
    | t -> err st "expected program or subroutine, found %s" (Token.to_string t)
  in
  let rname = ident st in
  let rparams =
    if accept st Token.TLparen then begin
      if accept st Token.TRparen then []
      else begin
        let rec go acc =
          let x = ident st in
          if accept st Token.TComma then go (x :: acc) else List.rev (x :: acc)
        in
        let ps = go [] in
        expect st Token.TRparen;
        ps
      end
    end
    else []
  in
  newline st;
  let decls = ref [] in
  let consts = ref [] in
  let commons = ref [] in
  let equivs = ref [] in
  let dists = ref [] in
  let rec decl_section () =
    skip_newlines st;
    match peek st with
    | Token.TIdent "integer" ->
        advance st;
        decls := !decls @ parse_declarators st ~ty:Types.Tint;
        decl_section ()
    | Token.TIdent "real" ->
        advance st;
        (if accept st Token.TStar then
           let w = int_lit st in
           if w <> 8 then err st "only real*8 is supported (got real*%d)" w);
        decls := !decls @ parse_declarators st ~ty:Types.Treal;
        decl_section ()
    | Token.TIdent "parameter" ->
        advance st;
        consts := !consts @ parse_parameter st;
        decl_section ()
    | Token.TIdent "common" ->
        advance st;
        commons := !commons @ [ parse_common st ];
        decl_section ()
    | Token.TIdent "equivalence" ->
        advance st;
        equivs := !equivs @ parse_equivalence st;
        decl_section ()
    | Token.TDirective "distribute" ->
        advance st;
        dists := !dists @ parse_distribute st ~reshape:false;
        decl_section ()
    | Token.TDirective "distribute_reshape" ->
        advance st;
        dists := !dists @ parse_distribute st ~reshape:true;
        decl_section ()
    | _ -> ()
  in
  decl_section ();
  let rbody = parse_stmts st ~stop:at_bare_end in
  expect_ident st "end";
  (if peek st <> Token.TEof then newline st);
  {
    Decl.rname;
    rkind;
    rparams;
    rdecls = !decls;
    rconsts = !consts;
    rcommons = !commons;
    requivs = !equivs;
    rdists = !dists;
    rbody;
    rloc;
  }

let parse_file ~fname src =
  match Lexer.tokenize ~fname src with
  | Error e -> Error e
  | Ok toks -> (
      let st = { toks = Array.of_list toks; pos = 0; fname } in
      try
        let routines = ref [] in
        skip_newlines st;
        while peek st <> Token.TEof do
          routines := parse_routine st :: !routines;
          skip_newlines st
        done;
        Ok { Decl.fname; routines = List.rev !routines }
      with Perror (l, msg) -> Error (Printf.sprintf "%s: %s" (Loc.to_string l) msg))

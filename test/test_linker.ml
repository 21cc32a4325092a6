(* Tests for the shadow-file / pre-linker machinery (paper §5) and the
   link-time common-block checks (§6): signatures, cloning, propagation down
   call chains, and end-to-end execution of linked multi-file programs. *)

open Ddsm_frontend
open Ddsm_linker
open Ddsm_exec
module K = Ddsm_dist.Kind
module Sema = Ddsm_sema.Sema
module Config = Ddsm_machine.Config
module Pagetable = Ddsm_machine.Pagetable
module Rt = Ddsm_runtime.Rt

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let parse name src =
  match Parser.parse_file ~fname:name src with
  | Ok f -> f
  | Error e -> Alcotest.failf "parse %s: %s" name e

let obj ?flags name src =
  match Objfile.compile ?flags (parse name src) with
  | Ok o -> o
  | Error es -> Alcotest.failf "compile %s: %s" name (String.concat "; " es)

let link_ok objs =
  match Prelink.link objs with
  | Ok l -> l
  | Error es -> Alcotest.failf "link: %s" (String.concat "; " es)

let link_err ~expect objs =
  match Prelink.link objs with
  | Ok _ -> Alcotest.failf "expected link error mentioning %S" expect
  | Error es ->
      let has_sub s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      check_bool
        (Printf.sprintf "errors %s mention %S" (String.concat ";" es) expect)
        true
        (List.exists (fun e -> has_sub e expect) es)

let run_linked ?(nprocs = 4) l =
  let prog = Prog.create l.Prelink.routines ~main:l.Prelink.main in
  let cfg = Config.scaled ~nprocs () in
  let rt = Rt.create cfg ~policy:Pagetable.First_touch ~heap_words:(1 lsl 20) () in
  match Engine.run prog ~rt ~bounds:true () with
  | Ok o -> String.concat "\n" o.Engine.prints
  | Error m -> Alcotest.failf "run: %s" (Ddsm_check.Diag.to_string m)

(* ------------------------------------------------------------------ *)
(* Signatures *)

let test_sig_text () =
  (* the text [pflc dump] prints in shadow lines, and clone names derive
     from it *)
  List.iter
    (fun (s, text) -> check_str text text (Sig_.to_string s))
    [
      ([], "");
      ([ None; None ], "-;-");
      ([ Some { Sig_.kinds = [ K.Block; K.Star ]; onto = None }; None ],
       "r(block,*);-");
      ([ Some { Sig_.kinds = [ K.Cyclic_k 5 ]; onto = None } ], "r(cyclic(5))");
      ([ Some { Sig_.kinds = [ K.Block; K.Block ]; onto = Some [ 2; 1 ] } ],
       "r(block,block)onto(2,1)");
    ];
  check_bool "trivial" true (Sig_.is_trivial [ None; None ]);
  check_str "trivial mangle unchanged" "f" (Sig_.mangle "f" [ None ]);
  let m =
    Sig_.mangle "f" [ Some { Sig_.kinds = [ K.Block; K.Star ]; onto = None } ]
  in
  check_bool "mangled distinct" true (m <> "f");
  let m2 =
    Sig_.mangle "f" [ Some { Sig_.kinds = [ K.Cyclic; K.Star ]; onto = None } ]
  in
  check_bool "different dists mangle differently" true (m <> m2)

(* ------------------------------------------------------------------ *)
(* Objfile *)

let lib_src =
  {|
      subroutine daxpy(x, y, n, f)
      integer n
      real*8 x(n), y(n), f
      integer k
      do k = 1, n
        y(k) = y(k) + f * x(k)
      enddo
      end
|}

let main_src =
  {|
      program p
      integer n, i
      parameter (n = 128)
      real*8 a(n), b(n), s
c$distribute_reshape a(block), b(block)
c$doacross local(i) affinity(i) = data(a(i))
      do i = 1, n
        a(i) = 1.0
        b(i) = i
      enddo
      call daxpy(a, b, n, 2.0)
      s = 0.0
      do i = 1, n
        s = s + b(i)
      enddo
      print *, s
      end
|}

(* ------------------------------------------------------------------ *)
(* Shadow entries *)

let with_dir f =
  let dir = Filename.temp_file "ddsm" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* the shadow is a section of the object: every entry kind survives the
   object's save and load, and prints the same text *)
let test_shadow_roundtrip () =
  let s =
    {
      Shadow.defs = [ ("main", []); ("sub", [ None; None ]) ];
      calls = [ ("sub", [ Some { Sig_.kinds = [ K.Block ]; onto = None }; None ]) ];
      commons =
        [
          ( "blk",
            "main",
            [
              { Shadow.cm_name = "a"; cm_offset = 0; cm_shape = [ 10; 10 ];
                cm_dist = Some { Sig_.kinds = [ K.Block; K.Star ]; onto = None } };
              { Shadow.cm_name = "b"; cm_offset = 100; cm_shape = [ 50 ]; cm_dist = None };
            ] );
        ];
    }
  in
  with_dir (fun dir ->
      let path = Filename.concat dir "x.pfo" in
      Objfile.save { (obj "main.pf" main_src) with Objfile.shadow = s } ~path;
      match Objfile.load ~path with
      | Error e -> Alcotest.fail e
      | Ok o ->
          let s' = o.Objfile.shadow in
          check_int "defs" 2 (List.length s'.Shadow.defs);
          check_int "calls" 1 (List.length s'.Shadow.calls);
          check_int "commons" 1 (List.length s'.Shadow.commons);
          let _, _, ms = List.hd s'.Shadow.commons in
          check_int "members" 2 (List.length ms);
          check_bool "reshaped member dist survives" true
            ((List.hd ms).Shadow.cm_dist <> None);
          check_str "same text" (Shadow.to_string s) (Shadow.to_string s'))

(* compiling writes the object alone; its shadow comes back with it *)
let test_shadow_file_io () =
  with_dir (fun dir ->
      let o = obj "main.pf" main_src in
      let path = Filename.concat dir "main.pfo" in
      Objfile.save o ~path;
      Alcotest.(check (list string)) "only the object on disk" [ "main.pfo" ]
        (Array.to_list (Sys.readdir dir));
      match Objfile.load ~path with
      | Ok o' ->
          check_str "shadow text" (Shadow.to_string o.Objfile.shadow)
            (Shadow.to_string o'.Objfile.shadow)
      | Error e -> Alcotest.fail e)

let test_objfile_shadow_contents () =
  let o = obj "main.pf" main_src in
  let s = o.Objfile.shadow in
  check_bool "def main" true (List.mem_assoc "p" s.Shadow.defs);
  (* the call passes two whole reshaped arrays *)
  (match s.Shadow.calls with
  | [ ("daxpy", sg) ] ->
      check_bool "two reshaped args" true
        (match sg with
        | [ Some _; Some _; None; None ] -> true
        | _ -> false)
  | _ -> Alcotest.fail "expected one recorded call")

let test_objfile_save_load () =
  with_dir (fun dir ->
      let o = obj "main.pf" main_src in
      let path = Filename.concat dir "main.pfo" in
      Objfile.save o ~path;
      match Objfile.load ~path with
      | Ok o' ->
          check_int "units preserved" (List.length o.Objfile.units)
            (List.length o'.Objfile.units)
      | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* Pre-linker: cloning *)

let test_clone_created_and_runs () =
  let l = link_ok [ obj "main.pf" main_src; obj "lib.pf" lib_src ] in
  check_int "one clone" 1 (List.length l.Prelink.clones);
  let orig, clone = List.hd l.Prelink.clones in
  check_str "of daxpy" "daxpy" orig;
  check_bool "mangled name" true (clone <> "daxpy");
  check_bool "clone linked" true
    (List.exists (fun (n, _) -> n = clone) l.Prelink.routines);
  check_bool "recompilation counted" true (l.Prelink.recompilations >= 1);
  (* b(k) = k + 2*1 summed over 1..128 = 8256 + 256 = 8512 *)
  check_str "linked program computes correctly" "8512" (run_linked l)

(* [orphan] is never called from the program unit, so the clone of daxpy
   it needs is made while the pre-linker sweeps the routines no call
   reached, i.e. while it walks the routine table that cloning extends *)
let orphan_src =
  {|
      program p
      print *, 1
      end

      subroutine orphan()
      integer n
      parameter (n = 64)
      real*8 a(n), b(n)
c$distribute_reshape a(block), b(block)
      call daxpy(a, b, n, 2.0)
      end
|}

let test_clone_made_in_final_sweep () =
  let l = link_ok [ obj "main.pf" orphan_src; obj "lib.pf" lib_src ] in
  let clone =
    match l.Prelink.clones with
    | [ ("daxpy", clone) ] -> clone
    | _ -> Alcotest.fail "expected exactly one clone, of daxpy"
  in
  let linked n = List.filter (fun (m, _) -> m = n) l.Prelink.routines in
  List.iter
    (fun n -> check_int (n ^ " linked once") 1 (List.length (linked n)))
    [ "p"; "orphan"; "daxpy"; clone ];
  (match linked "orphan" with
  | [ (_, env) ] ->
      check_bool "orphan calls the clone" true
        (Ddsm_ir.Stmt.calls_made env.Sema.routine.Ddsm_ir.Decl.rbody = [ clone ])
  | _ -> ());
  check_int "one recompilation" 1 l.Prelink.recompilations;
  check_str "program runs" "1" (run_linked l)

(* linking only reads its objects: each object marshals to the same bytes
   before and after, and a second link of the same objects gives the same
   result *)
let test_link_leaves_objects_unchanged () =
  let gen =
    Ddsm_fuzz.Spec.render
      (Ddsm_fuzz.Gen.generate ~size:(Ddsm_fuzz.Gen.of_level 24) ~seed:15 ())
    |> List.map (fun (name, src) -> obj name src)
  in
  List.iter
    (fun objs ->
      let bytes () = List.map (fun o -> Marshal.to_string o []) objs in
      let before = bytes () in
      let l = link_ok objs in
      check_bool "a clone is made" true (l.Prelink.clones <> []);
      check_bool "objects unchanged" true (bytes () = before);
      check_bool "second link equal" true
        (Marshal.to_string (link_ok objs) [] = Marshal.to_string l []))
    [ [ obj "main.pf" main_src; obj "lib.pf" lib_src ]; gen ]

let test_two_distributions_two_clones () =
  let main2 =
    {|
      program p
      integer n, i
      parameter (n = 60)
      real*8 a(n), b(n), c(n), d(n), s
c$distribute_reshape a(block), b(block)
c$distribute_reshape c(cyclic), d(cyclic)
      do i = 1, n
        a(i) = 1.0
        b(i) = 0.0
        c(i) = 2.0
        d(i) = 0.0
      enddo
      call daxpy(a, b, n, 3.0)
      call daxpy(c, d, n, 5.0)
      s = 0.0
      do i = 1, n
        s = s + b(i) + d(i)
      enddo
      print *, s
      end
|}
  in
  let l = link_ok [ obj "main.pf" main2; obj "lib.pf" lib_src ] in
  check_int "two distinct clones" 2 (List.length l.Prelink.clones);
  (* 60*3 + 60*10 = 780 *)
  check_str "both clones compute" "780" (run_linked l)

let test_propagation_down_chain () =
  (* main -> outer -> inner: the reshape directive propagates two levels *)
  let chain =
    {|
      subroutine inner(x, n)
      integer n
      real*8 x(n)
      integer k
      do k = 1, n
        x(k) = x(k) + 1.0
      enddo
      end

      subroutine outer(x, n)
      integer n
      real*8 x(n)
      call inner(x, n)
      call inner(x, n)
      end
|}
  in
  let main3 =
    {|
      program p
      integer n, i
      parameter (n = 64)
      real*8 a(n), s
c$distribute_reshape a(block)
      do i = 1, n
        a(i) = 0.0
      enddo
      call outer(a, n)
      s = 0.0
      do i = 1, n
        s = s + a(i)
      enddo
      print *, s
      end
|}
  in
  let l = link_ok [ obj "main.pf" main3; obj "chain.pf" chain ] in
  check_int "clones of outer and inner" 2 (List.length l.Prelink.clones);
  check_bool "both originals cloned" true
    (List.mem "outer" (List.map fst l.Prelink.clones)
    && List.mem "inner" (List.map fst l.Prelink.clones));
  check_str "propagated execution" "128" (run_linked l)

let test_same_signature_shares_clone () =
  let main4 =
    {|
      program p
      integer n, i
      parameter (n = 40)
      real*8 a(n), b(n), s
c$distribute_reshape a(block), b(block)
      do i = 1, n
        a(i) = 1.0
        b(i) = 1.0
      enddo
      call bump(a, n)
      call bump(b, n)
      s = 0.0
      do i = 1, n
        s = s + a(i) + b(i)
      enddo
      print *, s
      end

      subroutine bump(x, n)
      integer n
      real*8 x(n)
      integer k
      do k = 1, n
        x(k) = x(k) * 2.0
      enddo
      end
|}
  in
  let l = link_ok [ obj "main.pf" main4 ] in
  check_int "one shared clone for both call sites" 1 (List.length l.Prelink.clones);
  check_str "result" "160" (run_linked l)

(* ------------------------------------------------------------------ *)
(* Link-time errors *)

let test_clone_with_onto_signature () =
  (* the onto clause is part of the distribution signature: two calls with
     different onto grids need two clones *)
  let src =
    {|
      program p
      integer i, j
      real*8 a(16, 16), b(16, 16), s
c$distribute_reshape a(block, block) onto(2, 1)
c$distribute_reshape b(block, block) onto(1, 2)
      do j = 1, 16
        do i = 1, 16
          a(i, j) = 1.0
          b(i, j) = 2.0
        enddo
      enddo
      call halve(a)
      call halve(b)
      s = 0.0
      do j = 1, 16
        do i = 1, 16
          s = s + a(i, j) + b(i, j)
        enddo
      enddo
      print *, s
      end

      subroutine halve(x)
      real*8 x(16, 16)
      integer i, j
      do j = 1, 16
        do i = 1, 16
          x(i, j) = x(i, j) / 2.0
        enddo
      enddo
      end
|}
  in
  let l = link_ok [ obj "p.pf" src ] in
  check_int "two clones (onto differs)" 2 (List.length l.Prelink.clones);
  (* 256 * (0.5 + 1.0) = 384 *)
  check_str "result" "384" (run_linked ~nprocs:8 l)

let test_unresolved_routine () =
  link_err ~expect:"unresolved"
    [ obj "main.pf" "      program p\n      call nowhere(1)\n      end\n" ]

let test_no_or_multiple_mains () =
  link_err ~expect:"no program unit" [ obj "lib.pf" lib_src ];
  link_err ~expect:"multiple program units"
    [
      obj "a.pf" "      program p1\n      print *, 1\n      end\n";
      obj "b.pf" "      program p2\n      print *, 2\n      end\n";
    ]

let test_duplicate_routine () =
  link_err ~expect:"more than one file"
    [ obj "a.pf" lib_src; obj "b.pf" lib_src;
      obj "m.pf" "      program p\n      print *, 0\n      end\n" ]

(* the cross-file duplicate names where each definition is *)
let test_duplicate_routine_located () =
  let s = "      subroutine s(n)\n      integer n\n      end\n" in
  link_err ~expect:"routine s defined in more than one file: a.pf:1 and b.pf:1"
    [ obj "a.pf" s; obj "b.pf" s;
      obj "m.pf" "      program p\n      call s(1)\n      end\n" ]

let common_decl =
  Printf.sprintf
    {|
      subroutine user%s
      real*8 v(100)
      common /shared/ v
c$distribute_reshape v(%s)
      v(1) = 1.0
      end
|}

let test_common_consistency () =
  (* consistent reshaped commons across files link fine *)
  let a = common_decl "1" "block"
  and b = common_decl "2" "block"
  and m = "      program p\n      call user1\n      call user2\n      end\n" in
  ignore (link_ok [ obj "a.pf" a; obj "b.pf" b; obj "m.pf" m ]);
  (* inconsistent distribution of a reshaped common member is flagged *)
  let b_bad = common_decl "2" "cyclic" in
  link_err ~expect:"inconsistent"
    [ obj "a.pf" a; obj "b.pf" b_bad; obj "m.pf" m ]

let test_common_shape_mismatch () =
  let a = common_decl "1" "block" in
  let b_bad =
    {|
      subroutine user2
      real*8 v(50)
      common /shared/ v
c$distribute_reshape v(block)
      v(1) = 1.0
      end
|}
  in
  let m = "      program p\n      call user1\n      call user2\n      end\n" in
  link_err ~expect:"declared"
    [ obj "a.pf" a; obj "b.pf" b_bad; obj "m.pf" m ]

let test_reshaped_common_vs_plain_declaration () =
  (* the same common array reshaped in one file but declared plain in
     another: the reshaped member has no counterpart on the plain side,
     which §6 must reject rather than silently splitting the storage *)
  let a = common_decl "1" "block" in
  let b_plain =
    {|
      subroutine user2
      real*8 v(100)
      common /shared/ v
      v(2) = 2.0
      end
|}
  in
  let m = "      program p\n      call user1\n      call user2\n      end\n" in
  link_err ~expect:"no counterpart"
    [ obj "a.pf" a; obj "b.pf" b_plain; obj "m.pf" m ]

let test_plain_common_mismatch_tolerated () =
  (* §6: "common blocks without reshaped arrays are not affected" *)
  let a =
    {|
      subroutine user1
      real*8 v(100)
      common /shared/ v
      v(1) = 1.0
      end
|}
  in
  let b =
    {|
      subroutine user2
      real*8 v(100)
      common /shared/ v
      v(2) = 2.0
      end
|}
  in
  let m = "      program p\n      call user1\n      call user2\n      end\n" in
  ignore (link_ok [ obj "a.pf" a; obj "b.pf" b; obj "m.pf" m ])

(* ------------------------------------------------------------------ *)
(* Binfile: the hardened Marshal container *)

module Ddsm = Ddsm_core.Ddsm

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let check_error_mentions what sub = function
  | Ok _ -> Alcotest.failf "%s: expected an error mentioning %S" what sub
  | Error e ->
      check_bool
        (Printf.sprintf "%s: %S mentions %S" what e sub)
        true (contains e sub)

let tmpfile =
  let ctr = ref 0 in
  fun () ->
    incr ctr;
    Printf.sprintf "tbin-%d-%d.bin" (Unix.getpid ()) !ctr

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let with_file path f =
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let sample = ([ "alpha"; "beta" ], 42)

let load_sample ~kind ~path : (string list * int, string) result =
  Binfile.load ~kind ~path

let test_binfile_roundtrip () =
  with_file (tmpfile ()) (fun path ->
      Binfile.save ~kind:"test" ~path sample;
      match load_sample ~kind:"test" ~path with
      | Ok v -> check_bool "roundtrip" true (v = sample)
      | Error e -> Alcotest.fail e)

let test_binfile_kind_mismatch () =
  with_file (tmpfile ()) (fun path ->
      Binfile.save ~kind:"object" ~path sample;
      check_error_mentions "kind mismatch" "expected a image file"
        (load_sample ~kind:"image" ~path))

let test_binfile_foreign_and_empty () =
  with_file (tmpfile ()) (fun path ->
      write_file path "#!/bin/sh\necho not an image\n";
      check_error_mentions "foreign file" "bad or missing magic"
        (load_sample ~kind:"test" ~path);
      write_file path "";
      check_error_mentions "empty file" "empty file"
        (load_sample ~kind:"test" ~path))

(* every retired format version: 1 (headerless era) and 2 (units with a
   second copy of each routine, shadows with clone requests) *)
let test_binfile_stale_version () =
  with_file (tmpfile ()) (fun path ->
      let payload = Marshal.to_string sample [] in
      List.iter
        (fun v ->
          write_file path
            (Printf.sprintf "DDSMBIN1 test %d %d %s\n%s" v
               (String.length payload)
               (Digest.to_hex (Digest.string payload))
               payload);
          check_error_mentions "stale version"
            (Printf.sprintf "stale format version %d" v)
            (load_sample ~kind:"test" ~path))
        [ 1; 2 ])

let test_binfile_truncated () =
  with_file (tmpfile ()) (fun path ->
      Binfile.save ~kind:"test" ~path sample;
      let all = read_file path in
      write_file path (String.sub all 0 (String.length all - 5));
      check_error_mentions "truncated" "truncated"
        (load_sample ~kind:"test" ~path))

let test_binfile_corrupt_payload () =
  with_file (tmpfile ()) (fun path ->
      Binfile.save ~kind:"test" ~path sample;
      let all = Bytes.of_string (read_file path) in
      (* flip a byte in the payload, well past the header line *)
      let i = Bytes.length all - 3 in
      Bytes.set all i (Char.chr (Char.code (Bytes.get all i) lxor 0xff));
      write_file path (Bytes.to_string all);
      check_error_mentions "digest mismatch" "digest mismatch"
        (load_sample ~kind:"test" ~path))

let test_binfile_trailing_garbage () =
  with_file (tmpfile ()) (fun path ->
      Binfile.save ~kind:"test" ~path sample;
      write_file path (read_file path ^ "extra");
      check_error_mentions "trailing garbage" "trailing garbage"
        (load_sample ~kind:"test" ~path))

(* the atomicity proof: [save] writes a temp file beside the target and
   renames it into place, so a writer killed mid-write leaves the old
   complete file (or no file) plus a stray torn temp file, and a reader
   never observes a partial one *)
let test_binfile_crash_atomicity () =
  with_dir (fun dir ->
      let path = Filename.concat dir "target.bin" in
      let v1 = ([ "old" ], 1) and v2 = ([ "new"; "bigger" ], 2) in
      let temps () =
        Array.to_list (Sys.readdir dir)
        |> List.filter (fun f ->
               String.length f >= 6 && String.sub f 0 6 = ".ddsm-")
      in
      Binfile.save ~kind:"test" ~path v1;
      let old_bytes = read_file path in
      (* a reader that opened the old file keeps all of it: the new file is
         a fresh inode renamed over the target, never a rewrite in place *)
      let ic = open_in_bin path in
      Binfile.save ~kind:"test" ~path v2;
      let seen = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check_bool "open reader keeps the complete old file" true
        (seen = old_bytes);
      check_bool "a finished save leaves no temp file" true (temps () = []);
      (* a writer killed mid-write: the first bytes of what a save writes,
         left in a temp file of its own *)
      let torn_path, oc =
        Filename.open_temp_file ~mode:[ Open_binary ] ~temp_dir:dir ".ddsm-"
          ".tmp"
      in
      output_string oc (String.sub old_bytes 0 (String.length old_bytes / 2));
      close_out oc;
      (match load_sample ~kind:"test" ~path with
      | Ok v -> check_bool "target survives the torn write" true (v = v2)
      | Error e -> Alcotest.failf "reader observed a partial file: %s" e);
      (* beside the torn file, a clean save works again *)
      Binfile.save ~kind:"test" ~path v1;
      (match load_sample ~kind:"test" ~path with
      | Ok v -> check_bool "clean save after crash" true (v = v1)
      | Error e -> Alcotest.fail e);
      check_bool "only the torn temp file is left" true
        (temps () = [ Filename.basename torn_path ]))

let hello_src =
  "      program hello\n\
  \      integer n, i\n\
  \      parameter (n = 64)\n\
  \      real*8 a(n), s\n\
   c$distribute a(block)\n\
   c$doacross local(i) affinity(i) = data(a(i))\n\
  \      do i = 1, n\n\
  \        a(i) = i\n\
  \      enddo\n\
  \      s = 0.0\n\
  \      do i = 1, n\n\
  \        s = s + a(i)\n\
  \      enddo\n\
  \      print *, 'sum =', s\n\
  \      end\n"

let compile_hello () =
  match Ddsm.compile_source ~fname:"hello.pf" hello_src with
  | Ok o -> o
  | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)

let link_hello () =
  match Ddsm.link [ compile_hello () ] with
  | Ok (_, linked) -> linked
  | Error es -> Alcotest.failf "link: %s" (String.concat "; " es)

(* the CLIs' loaders sit on Binfile: corrupt inputs are Errors, and kinds
   do not cross (an object file is not an image) *)
let test_loaders_are_total () =
  with_file (tmpfile ()) (fun path ->
      write_file path "garbage, not an object file";
      (match Objfile.load ~path with
      | Ok _ -> Alcotest.fail "Objfile.load accepted garbage"
      | Error e ->
          check_bool "objfile error is located" true (contains e path));
      (match Ddsm.load_image ~path with
      | Ok _ -> Alcotest.fail "load_image accepted garbage"
      | Error e ->
          check_bool "image error is located" true (contains e path));
      Objfile.save (compile_hello ()) ~path;
      (match Ddsm.load_image ~path with
      | Ok _ -> Alcotest.fail "load_image accepted an object file"
      | Error e ->
          check_bool "kind confusion diagnosed" true
            (contains e "expected a image file"));
      let linked = link_hello () in
      Ddsm.save_image linked ~path;
      match Ddsm.load_image ~path with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "image roundtrip: %s" e)

let () =
  Alcotest.run "linker"
    [
      ( "binfile",
        [
          Alcotest.test_case "roundtrip" `Quick test_binfile_roundtrip;
          Alcotest.test_case "kind mismatch" `Quick test_binfile_kind_mismatch;
          Alcotest.test_case "foreign/empty" `Quick test_binfile_foreign_and_empty;
          Alcotest.test_case "stale version" `Quick test_binfile_stale_version;
          Alcotest.test_case "truncated" `Quick test_binfile_truncated;
          Alcotest.test_case "corrupt payload" `Quick test_binfile_corrupt_payload;
          Alcotest.test_case "trailing garbage" `Quick test_binfile_trailing_garbage;
          Alcotest.test_case "crash atomicity" `Quick test_binfile_crash_atomicity;
          Alcotest.test_case "loaders are total" `Quick test_loaders_are_total;
        ] );
      ( "signatures",
        [ Alcotest.test_case "text & mangling" `Quick test_sig_text ] );
      ( "shadow",
        [
          Alcotest.test_case "text roundtrip" `Quick test_shadow_roundtrip;
          Alcotest.test_case "file io" `Quick test_shadow_file_io;
        ] );
      ( "objfile",
        [
          Alcotest.test_case "shadow contents" `Quick test_objfile_shadow_contents;
          Alcotest.test_case "save/load" `Quick test_objfile_save_load;
        ] );
      ( "cloning",
        [
          Alcotest.test_case "clone created & runs" `Quick test_clone_created_and_runs;
          Alcotest.test_case "two distributions, two clones" `Quick test_two_distributions_two_clones;
          Alcotest.test_case "propagation down the chain" `Quick test_propagation_down_chain;
          Alcotest.test_case "shared clone" `Quick test_same_signature_shares_clone;
          Alcotest.test_case "link leaves objects unchanged" `Quick
            test_link_leaves_objects_unchanged;
          Alcotest.test_case "clone made in final sweep" `Quick
            test_clone_made_in_final_sweep;
        ] );
      ( "link errors",
        [
          Alcotest.test_case "unresolved routine" `Quick test_unresolved_routine;
          Alcotest.test_case "onto in clone signature" `Quick test_clone_with_onto_signature;
          Alcotest.test_case "program unit count" `Quick test_no_or_multiple_mains;
          Alcotest.test_case "duplicate routine" `Quick test_duplicate_routine;
          Alcotest.test_case "duplicate routine located" `Quick
            test_duplicate_routine_located;
          Alcotest.test_case "reshaped common consistency" `Quick test_common_consistency;
          Alcotest.test_case "reshaped common shape" `Quick test_common_shape_mismatch;
          Alcotest.test_case "plain commons tolerated" `Quick test_plain_common_mismatch_tolerated;
          Alcotest.test_case "reshaped vs plain common" `Quick
            test_reshaped_common_vs_plain_declaration;
        ] );
    ]

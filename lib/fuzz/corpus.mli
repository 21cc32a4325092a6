(** Regression corpus of minimized fuzzing reproducers.

    Each corpus file is an ordinary [.pf] source whose leading comment
    lines carry its provenance and its expected differential verdict:

    {v
c pflfuzz corpus: seed=41 bucket=diverged:values
c expect: ok
      program main
      ...
    v}

    [expect] is matched as a prefix of {!Differ.kind_of}, so ["diverged"]
    matches any divergence kind and ["ok"] demands a clean pass.  Corpus
    files found by a campaign are replayed forever by the test suite, and
    any directory of plain [.pf] programs replays as a corpus of
    headerless cases (the examples do, in [@fuzz]). *)

type case = { path : string; seed : int; expect : string; source : string }

val write_case :
  dir:string -> seed:int -> bucket:string -> expect:string -> source:string ->
  string
(** Write a reproducer into [dir] (created if missing); returns the path. *)

val load : dir:string -> case list
(** All corpus cases in [dir], sorted by filename; missing directory is an
    empty corpus.  A file without a [seed=] header gets
    [Hashtbl.hash] of its basename as its seed — distinct files get
    distinct flags legs, and each gets the same one on every load — and a
    file without an [expect:] header gets [expect = "ok"]. *)

val replay : Differ.options -> case -> (unit, string) result
(** Run the case through the differential driver and check the verdict
    against its expectation. *)

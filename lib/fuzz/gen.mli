(** Typed random program generator.

    Programs are well-formed by construction: every reference stays in
    bounds, every doacross body writes only its own iteration's elements of
    one array and reads scalars it does not write (so runs are
    serial-equivalent, deterministic, and race-free), portion-passing calls
    land on full chunk starts, and all directive clauses satisfy the sema
    legality rules.  The program is a pure function of the seed. *)

type size = {
  max_arrays : int;
  max_stmts : int;  (* statements beyond the per-array init loops *)
  max_ext : int;  (* array extent per dimension (>= 3) *)
  max_subs : int;
  max_files : int;
}

val of_level : int -> size
(** Scale the size knobs from a single [--max-size] level; [of_level 10]
    is the default of {!generate}: small programs for CI campaigns
    (extents 3-6, <= 2 subroutines). *)

val generate : ?size:size -> seed:int -> unit -> Spec.t

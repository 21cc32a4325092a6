(** The pre-linker (paper §5 and the link-time half of §6).

    Given all object files, it:

    + checks common-block consistency: every declaration of a common block
      containing reshaped arrays must place each reshaped member at the same
      offset with the same shape, size, and distribution (§6 — blocks
      without reshaped members are exempt, as in the paper);
    + walks every call site, computes the reshaped-argument signature, and
      rewrites the call to target the matching clone, re-invoking
      compilation on the defining object for each missing clone until the
      fixpoint is reached ("the first compilation of a program can
      potentially result in several recompilations as the directives are
      propagated all the way down the call graph");
    + resolves every call target and locates the unique program unit.

    The objects are only read: rewritten bodies and clones live in the
    result, which is ready for the VM (or for saving as a linked image). *)

type linked = {
  routines : (string * Ddsm_sema.Sema.env) list;
      (** each env's routine is lowered, its calls bound to clones *)
  main : string;
  clones : (string * string) list;  (** (original, clone-name) pairs created *)
  recompilations : int;  (** compiler re-invocations the fixpoint needed *)
}

val link : Objfile.t list -> (linked, string list) result

(* A named measurement with its unit; [note] is printed beside it. *)

type t = { name : string; value : float; unit_ : string; note : string }

let v ?(note = "") name unit_ value = { name; value; unit_; note }

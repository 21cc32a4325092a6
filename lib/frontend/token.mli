(** Tokens of the mini-Fortran surface language. *)

type t =
  | TInt of int
  | TReal of float
  | TStr of string
  | TIdent of string  (** lower-cased *)
  | TPlus
  | TMinus
  | TStar
  | TSlash
  | TPow
  | TLparen
  | TRparen
  | TComma
  | TAssign  (** [=] *)
  | TColon
  | TRel of Ddsm_ir.Expr.relop
  | TAnd
  | TOr
  | TNot
  | TNewline
  | TDirective of string  (** [c$<name>] at start of line *)
  | TEof

val to_string : t -> string

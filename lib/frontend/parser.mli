(** Recursive-descent parser for the mini-Fortran subset with the paper's
    data-distribution directives.

    Supported constructs: [program]/[subroutine] units, [integer] and
    [real*8] (or [real]) declarations of scalars and arrays (with optional
    lower bounds [lo:hi]), [parameter], [common], [equivalence], nested [do]
    loops, block and one-line [if] (with [elseif]/[else]), assignments,
    [call], [print], [return], [continue], [stop], and the directives
    [c$doacross] (clauses: [local], [shared], [nest], [affinity(..) =
    data(..)], [onto], [schedtype]), [c$distribute], [c$distribute_reshape]
    and [c$redistribute]. *)

val parse_file : fname:string -> string -> (Ddsm_ir.Decl.file, string) result
(** Errors are formatted ["file:line: message"]. *)


(** A minimal JSON value, emitter and parser — enough for the Chrome
    trace-event writer, the bench snapshot files and the host-time
    benchmark's reading of [BENCHMARK.json], with no external dependency.

    Emission notes: [Float nan] becomes [null] (JSON has no NaN literal);
    strings are escaped per RFC 8259. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* Test-only: tests compare rendered JSON in memory. *)
val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_channel : out_channel -> t -> unit

val of_string : string -> (t, string) result
(** Parse one complete JSON value (the RFC 8259 grammar; [\uXXXX] escapes
    are decoded to UTF-8). Numeric literals without ['.']/['e'] that fit
    an OCaml [int] parse as [Int], all other numbers as [Float]. Trailing
    non-whitespace after the value is an error. Never raises. *)

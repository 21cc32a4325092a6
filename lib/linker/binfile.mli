(** Hardened container for Marshal-persisted artifacts (object files and
    linked images).

    A bare [Marshal.from_channel] on an untrusted path is a crash (or
    worse) waiting to happen: truncated files, files written by an older
    build, or arbitrary foreign bytes all reach the unmarshaller
    unchecked. [Binfile] frames every payload with a one-line text
    header — magic, artifact kind, format version, payload length and an
    MD5 digest — and only unmarshals bytes that passed every check, so a
    bad file is always a diagnosable [Error], never an exception or
    undefined behaviour.

    Writes are atomic: the payload goes to a fresh temp file in the target
    directory which is then renamed into place, so a concurrent reader
    either sees the complete old file, the complete new file, or no file
    — never a torn one. *)

val save : kind:string -> path:string -> 'a -> unit
(** [save ~kind ~path v] marshals [v] and atomically installs it at
    [path]. Raises [Sys_error] on OS failures (unwritable directory,
    full disk); the target is untouched in that case. *)

val load : kind:string -> path:string -> ('a, string) result
(** [load ~kind ~path] validates magic, kind, version, length and digest
    before unmarshalling. Errors are located (they start with [path]) and
    say which check failed: not a DDSM file, wrong artifact kind, stale
    format version, truncated, or digest mismatch. *)

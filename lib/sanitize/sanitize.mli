(** Dynamic happens-before sanitizer: a deterministic FastTrack-style
    vector-clock race detector plus a cache-line/page false-sharing
    classifier, subscribed to the runtime's typed event stream
    ({!Ddsm_runtime.Rt.event}) with {!observe}.

    Happens-before edges come from the stream's structural events:
    - [Fork] of a parallel region orders the master's preceding accesses
      before every worker;
    - [Join] orders every worker's accesses before the master's subsequent
      ones;
    - [Barrier], one per release, orders each released processor's
      preceding accesses before every released processor's subsequent
      ones. A [Redistribute] orders nothing: sema rejects one inside a
      doacross body, and one reached through a call from a body is not
      synchronized.

    Two conflicting accesses (same word, two processors, at least one
    write) with neither ordered before the other are a **data race**.
    Conflicting unordered accesses to *distinct* words sharing an L2 line
    (or distinct lines sharing a page) are not races — the program's
    values are well-defined — but they are the paper's §1 layout problem:
    the line (page) ping-pongs between caches (nodes). These are reported
    separately as **false sharing** so "my program is wrong" and "my
    layout is slow" stay distinct diagnoses.

    Determinism: the detector consumes the simulator's deterministic
    access stream in order. The scheduler holds workers at a barrier, so no
    worker's post-barrier access precedes a sibling's pre-barrier one in
    the stream, and a given program + configuration always yields the same
    report. The disabled path costs nothing: no probe is
    installed unless a sanitizer is attached. *)

type kind =
  | Race  (** unordered conflicting accesses to one word *)
  | Line_sharing
      (** unordered conflicting accesses to distinct words of one L2 line *)
  | Page_sharing
      (** unordered conflicting accesses to distinct lines of one page *)

(* Test-only: the Hashtbl sanitizer oracle's reports are compared as text. *)
val kind_name : kind -> string

type report = {
  rep_kind : kind;
  rep_addr : int;  (** byte address of the access that completed the pair *)
  rep_array : string;  (** owning array, or ["(unattributed)"] *)
  rep_first_proc : int;
  rep_first_write : bool;
  rep_first_region : string;  (** [routine:line] label of the earlier access *)
  rep_second_proc : int;
  rep_second_write : bool;
  rep_second_region : string;
}

val describe : report -> string
(** One line naming the array, the two accesses (processor, read or write,
    region) and the byte address: the text of every printed report. *)

type t

val create : nprocs:int -> line_bytes:int -> page_bytes:int -> unit -> t
(** [nprocs] is the job's processor count (the width of every parallel
    region); [line_bytes]/[page_bytes] give the L2-line and page geometry
    used to classify false sharing (both powers of two). *)

val observe : t -> Ddsm_runtime.Rt.event -> unit
(** Feed one event. [Alloc] names the array reports land on. A
    [Barrier] joins the clocks of the processors it released; a worker
    whose arrival was dropped is not among them and keeps its stale clock,
    which is how a dropped barrier is detected. A [Barrier] outside a
    parallel region is ignored. [Redistribute], [Gather] and [Mark] carry
    no ordering.

    Shadow state is flat arrays indexed by word, line and page, grown to
    the highest index touched, and labels are interned: an access
    allocates nothing unless it grows an array or yields a new report.
    Raises [Invalid_argument] past 2{^19} distinct region labels or
    array names, the bound of the report dedup key. *)

val races : t -> report list
(** Data races observed so far, in detection order. *)

(* Test-only: tests read false-sharing pairs apart from races. *)
val false_sharing : t -> report list
(** Line/page false-sharing pairs observed so far, in detection order.
    Deduplicated per (kind, array, region pair, access kinds). *)

val dropped : t -> int
(** Reports suppressed by the per-run cap (the first 200 survive). *)

val is_clean : t -> bool
(** No data races and nothing dropped by the cap. False sharing does not
    make a run unclean — the program's values are still well-defined. *)

val report_json : t -> Ddsm_report.Json.t
(** Machine-readable report: counts plus one object per surviving race and
    false-sharing pair. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable summary: every race, then the false-sharing pairs. *)

(** Reference sanitizer, test-only: the FastTrack race detector and
    false-sharing classifier with Hashtbl shadow tables that
    [Ddsm_sanitize.Sanitize] used before its flat layout, kept as the
    oracle of the differential tests in test_machine_fastpath.ml. Same
    interface and the same reports, byte for byte. *)

type kind =
  | Race  (** unordered conflicting accesses to one word *)
  | Line_sharing
      (** unordered conflicting accesses to distinct words of one L2 line *)
  | Page_sharing
      (** unordered conflicting accesses to distinct lines of one page *)

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

type t

val create : nprocs:int -> line_bytes:int -> page_bytes:int -> unit -> t
(** [nprocs] is the job's processor count (the width of every parallel
    region); [line_bytes]/[page_bytes] give the L2-line and page geometry
    used to classify false sharing (both powers of two). *)

val observe : t -> Ddsm_runtime.Rt.event -> unit
(** Feed one event. [Alloc] names the array reports land on. A
    [Barrier] joins the clocks of the processors it released; one outside
    a parallel region is ignored. [Redistribute], [Gather] and [Mark]
    carry no ordering. *)

val races : t -> report list
(** Data races observed so far, in detection order. *)

val false_sharing : t -> report list
(** Line/page false-sharing pairs observed so far, in detection order.
    Deduplicated per (kind, array, region pair, access kinds). *)

val dropped : t -> int
(** Reports suppressed by the per-run cap (the first
    {!val-reports_cap} survive). *)

val is_clean : t -> bool
(** No data races and nothing dropped by the cap. False sharing does not
    make a run unclean — the program's values are still well-defined. *)

val reports_cap : int

val report_json : t -> Ddsm_report.Json.t
(** Machine-readable report: counts plus one object per surviving race and
    false-sharing pair. *)

val pp_report : Format.formatter -> t -> unit
(** Human-readable summary: every race, then the false-sharing pairs. *)

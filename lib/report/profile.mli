(** Cycle-attribution profiler and bounded event trace.

    The profiler subscribes to the runtime's typed event stream
    ({!Ddsm_runtime.Rt.event}) with {!observe}. Every memory-system access
    arrives tagged with the parallel region executing it. Addresses are
    resolved against the allocation map built from the stream's [Alloc]
    events ({!Addrmap}), and each access's latency breakdown
    is accumulated into a region x array x cause matrix. Causes partition the
    machine's [mem_stall_cycles] counter exactly, so
    [total_stall = Counters.mem_stall_cycles] after a profiled run — any gap
    is a counter-accounting bug.

    Alongside attribution the profiler keeps a bounded ring buffer of
    scheduling-level events (region enter/exit, barriers, redistributions,
    gathers, fault injections, watchdog trips) exportable as Chrome
    trace-event JSON
    ([chrome://tracing] / Perfetto). When the ring wraps, the oldest events
    are dropped and the drop count is reported in the JSON's [otherData]. *)

type cause = Tlb | Hit | Local_fill | Remote_fill | Contention | Coherence

(* Test-only: tests read one cause's cell of a row. *)
val cause_index : cause -> int

type t

val create : ?trace_cap:int -> unit -> t
(** [trace_cap] bounds the event ring buffer (default 65536 events). *)

val observe : t -> Ddsm_runtime.Rt.event -> unit
(** The profiler's subscription to the runtime event stream. [Alloc]
    extends the allocation map; [Access] attributes the access's cycle
    breakdown to its region and to whichever array owns the byte address
    (or to ["(unattributed)"]); every other event, and an [Access] that
    fired an injected TLB flush, is appended to the trace. A barrier
    release is one instant per released processor. *)

(* Test-only: tests check that attribution sums to the stall cycles. *)
val total_stall : t -> int
(** Sum of all recorded access cycles. *)

(* Test-only: tests check that attribution sums to the stall cycles. *)
val attributed_stall : t -> int
(** Cycles that landed on a named array (total minus unattributed). *)

(** {2 Event trace} *)

val trace_dropped : t -> int
(** Events lost to ring-buffer wrap-around. *)

(* Test-only: tests inspect the trace without writing a file. *)
val trace_json : t -> Json.t
(** Chrome trace-event JSON object: [{"traceEvents": [...], ...}]. Events
    are sorted by timestamp (per-processor clocks make raw arrival order
    non-monotonic). *)

val write_trace : t -> path:string -> unit
(** Write {!trace_json} to [path]. Raises [Sys_error] if unwritable. *)

(** {2 Attribution report} *)

type row = {
  r_region : string;
  r_array : string;
  r_cycles : int array;  (** indexed by {!cause_index} *)
  r_total : int;
}

(* Test-only: tests read the attribution matrix. *)
val rows : t -> row list
(** Attribution matrix rows, most expensive first. *)

val attribution_json : t -> Json.t
(** Machine-readable snapshot of totals and rows (bench output). *)

val pp_report : ?top:int -> Format.formatter -> t -> unit
(** ASCII top-[top] report (default 12 rows); percentages over a zero total
    render as ["--"]. *)

(** Machine and cost-model parameters for the simulated CC-NUMA
    multiprocessor (paper §2: the SGI Origin-2000).

    Two presets are provided: {!origin2000} with the paper's published
    parameters (16 KB pages, 32 KB/32 B L1, 4 MB/128 B L2, 2-way, ~70-cycle
    local and 110–180-cycle remote miss latencies, 64-entry TLB), and
    {!scaled}, a shape-preserving reduction used by the benchmark harness so
    that scaled-down problem sizes keep the paper's data-set-to-cache and
    data-set-to-page ratios. *)

type cache_cfg = {
  size_bytes : int;
  line_bytes : int;  (** power of two *)
  assoc : int;
  hit_cycles : int;  (** access latency on a hit *)
}

type t = {
  nprocs : int;
  procs_per_node : int;  (** 2 on the Origin-2000 *)
  page_bytes : int;  (** power of two *)
  l1 : cache_cfg;
  l2 : cache_cfg;
  tlb_entries : int;
  tlb_miss_cycles : int;
  local_mem_cycles : int;  (** uncontended local-memory miss latency *)
  remote_base_cycles : int;  (** remote miss latency at one network hop *)
  remote_per_hop_cycles : int;  (** additional latency per extra hop *)
  mem_occupancy_cycles : int;
      (** cycles a memory module is busy serving one cache line; the
          reciprocal is per-node memory bandwidth, the source of hot-node
          bottlenecks *)
  dirty_transfer_extra_cycles : int;
      (** extra latency when the line must be fetched from another
          processor's dirty cache (3-hop transaction) *)
  inval_cycles_per_sharer : int;
      (** serialisation cost per invalidation sent on a write to a shared
          line *)
  node_mem_bytes : int;
      (** memory capacity per node; overflow pages spill round-robin to other
          nodes (drives the paper's Figure 4 remark that class C exceeds one
          node's memory) *)
}

val origin2000 : nprocs:int -> t
(** Paper-faithful parameters. *)

val scaled : nprocs:int -> ?factor:int -> unit -> t
(** [scaled ~nprocs ~factor ()] shrinks capacities (caches, page size, TLB
    reach, node memory) by [factor] (default 64) while keeping latencies;
    problem sizes shrunk by the same factor then exercise the same regimes
    as the paper's full-size runs. Line sizes are kept at 32/128 bytes so
    spatial-locality and false-sharing granularity stay realistic. *)

val nnodes : t -> int
val node_of_proc : t -> int -> int
val pages_per_node : t -> int

val dims : t -> int
(** Hypercube dimension of the machine: the smallest [d] with
    [2^d >= nnodes]. Non-power-of-two node counts embed as a subcube of the
    next power of two, so every hop count is still bounded by [dims]. *)

val validate : t -> (unit, string) result
(** Check structural invariants (powers of two, positive parameters,
    l1 line <= l2 line <= page, node count within a 10-dimension (1024-node)
    hypercube). Each error names the offending parameter and value. *)

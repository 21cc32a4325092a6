(** Hypercube interconnect topology (paper §2: nodes "connected together in a
    hypercube through a switch-based interconnect").

    Node ids are consecutive integers; the hop distance between two nodes is
    the Hamming distance of their ids, the routing distance in a hypercube.
    Remote latency therefore ranges from [remote_base_cycles] (1 hop) up to
    roughly 180 cycles on large machines, matching §2's 110–180 range. *)

type t

val create : Config.t -> t
(* Test-only: tests check the hypercube's size. *)
val nnodes : t -> int

(* Test-only: tests check the hypercube distances behind route_cycles. *)
val hops : t -> int -> int -> int
(** [hops t n1 n2]: 0 if same node, else Hamming distance (>= 1). *)

val route_cycles : t -> from_node:int -> to_node:int -> int
(** One-way network traversal cost; 0 for the local node. *)

val mem_latency : t -> proc_node:int -> home_node:int -> int
(** Uncontended total miss latency to memory on [home_node]: local (~70) or
    remote (110 + per-hop beyond the first). *)

type t = {
  cfg : Config.t;
  nnodes : int;
  (* memory latency by hop count, dense over [0 .. Config.dims]: hop
     distances in a hypercube (Hamming distance of node ids) never exceed
     the dimension, so every lookup the simulator can make is precomputed
     once here *)
  hop_latency : int array;
}

let create cfg =
  let dims = Config.dims cfg in
  let hop_latency =
    Array.init (dims + 1) (fun h ->
        if h = 0 then cfg.Config.local_mem_cycles
        else
          cfg.Config.remote_base_cycles
          + ((h - 1) * cfg.Config.remote_per_hop_cycles))
  in
  { cfg; nnodes = Config.nnodes cfg; hop_latency }

let nnodes t = t.nnodes

let hops t n1 n2 =
  if n1 < 0 || n1 >= t.nnodes || n2 < 0 || n2 >= t.nnodes then
    invalid_arg "Topology.hops: node out of range";
  if n1 = n2 then 0
  else
    let x = n1 lxor n2 in
    let rec pc x acc = if x = 0 then acc else pc (x land (x - 1)) (acc + 1) in
    max 1 (pc x 0)

let route_cycles t ~from_node ~to_node =
  let h = hops t from_node to_node in
  if h = 0 then 0
  else t.hop_latency.(h) - t.cfg.Config.local_mem_cycles

let mem_latency t ~proc_node ~home_node =
  t.hop_latency.(hops t proc_node home_node)

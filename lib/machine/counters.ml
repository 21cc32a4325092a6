type t = {
  mutable loads : int;
  mutable stores : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable tlb_misses : int;
  mutable local_fills : int;
  mutable remote_fills : int;
  mutable dirty_fetches : int;
  mutable upgrades : int;
  mutable invals_sent : int;
  mutable invals_received : int;
  mutable writebacks : int;
  mutable contention_cycles : int;
  mutable mem_stall_cycles : int;
  mutable tlb_stall_cycles : int;
}

let create () =
  {
    loads = 0;
    stores = 0;
    l1_misses = 0;
    l2_misses = 0;
    tlb_misses = 0;
    local_fills = 0;
    remote_fills = 0;
    dirty_fetches = 0;
    upgrades = 0;
    invals_sent = 0;
    invals_received = 0;
    writebacks = 0;
    contention_cycles = 0;
    mem_stall_cycles = 0;
    tlb_stall_cycles = 0;
  }

let add acc x =
  acc.loads <- acc.loads + x.loads;
  acc.stores <- acc.stores + x.stores;
  acc.l1_misses <- acc.l1_misses + x.l1_misses;
  acc.l2_misses <- acc.l2_misses + x.l2_misses;
  acc.tlb_misses <- acc.tlb_misses + x.tlb_misses;
  acc.local_fills <- acc.local_fills + x.local_fills;
  acc.remote_fills <- acc.remote_fills + x.remote_fills;
  acc.dirty_fetches <- acc.dirty_fetches + x.dirty_fetches;
  acc.upgrades <- acc.upgrades + x.upgrades;
  acc.invals_sent <- acc.invals_sent + x.invals_sent;
  acc.invals_received <- acc.invals_received + x.invals_received;
  acc.writebacks <- acc.writebacks + x.writebacks;
  acc.contention_cycles <- acc.contention_cycles + x.contention_cycles;
  acc.mem_stall_cycles <- acc.mem_stall_cycles + x.mem_stall_cycles;
  acc.tlb_stall_cycles <- acc.tlb_stall_cycles + x.tlb_stall_cycles

let sum arr =
  let acc = create () in
  Array.iter (add acc) arr;
  acc

let accesses t = t.loads + t.stores

let to_assoc t =
  [
    ("loads", t.loads);
    ("stores", t.stores);
    ("l1_misses", t.l1_misses);
    ("l2_misses", t.l2_misses);
    ("tlb_misses", t.tlb_misses);
    ("local_fills", t.local_fills);
    ("remote_fills", t.remote_fills);
    ("dirty_fetches", t.dirty_fetches);
    ("upgrades", t.upgrades);
    ("invals_sent", t.invals_sent);
    ("invals_received", t.invals_received);
    ("writebacks", t.writebacks);
    ("contention_cycles", t.contention_cycles);
    ("mem_stall_cycles", t.mem_stall_cycles);
    ("tlb_stall_cycles", t.tlb_stall_cycles);
  ]

(** Domain-parallel map over independent deterministic jobs.

    The simulator's sweeps (bench figures, [pflrun --differential]) run many
    self-contained jobs — each builds its own runtime and machine — so they
    fan out across OCaml 5 domains without any shared mutable state. Results
    are reduced in job-list order and the first exception (in job order) is
    re-raised, making a parallel sweep observably identical to a sequential
    one. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] is [List.map f xs] computed on up to [jobs] domains
    (the calling domain included). [jobs = 1] runs sequentially with no
    domain spawned; [jobs < 1] raises [Invalid_argument]. [f] must not touch shared mutable state.

    Per-job outcomes (value or exception) are captured independently; after
    every domain joins, the lowest-index failure is re-raised with its
    original backtrace — never whichever failure a [Domain.join] happened
    to observe first. *)

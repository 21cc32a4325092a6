type sig_ = {
  arity : int * int;
  result : [ `Int | `Real | `Same ];
  array_arg : bool;
}

let table =
  [
    ("mod", { arity = (2, 2); result = `Same; array_arg = false });
    ("min", { arity = (2, 8); result = `Same; array_arg = false });
    ("max", { arity = (2, 8); result = `Same; array_arg = false });
    ("abs", { arity = (1, 1); result = `Same; array_arg = false });
    ("sqrt", { arity = (1, 1); result = `Real; array_arg = false });
    ("exp", { arity = (1, 1); result = `Real; array_arg = false });
    ("log", { arity = (1, 1); result = `Real; array_arg = false });
    ("sin", { arity = (1, 1); result = `Real; array_arg = false });
    ("cos", { arity = (1, 1); result = `Real; array_arg = false });
    ("int", { arity = (1, 1); result = `Int; array_arg = false });
    ("nint", { arity = (1, 1); result = `Int; array_arg = false });
    ("dble", { arity = (1, 1); result = `Real; array_arg = false });
    ("float", { arity = (1, 1); result = `Real; array_arg = false });
    (* runtime inquiry intrinsics over distributed arrays *)
    ("dsm_nprocs", { arity = (0, 0); result = `Int; array_arg = false });
    ("dsm_myproc", { arity = (0, 0); result = `Int; array_arg = false });
    (* dsm_numprocs(a, dim): processors assigned to a dimension *)
    ("dsm_numprocs", { arity = (2, 2); result = `Int; array_arg = true });
    (* dsm_chunksize(a, dim): block/chunk size of a dimension *)
    ("dsm_chunksize", { arity = (2, 2); result = `Int; array_arg = true });
    (* dsm_this_lo/hi(a, dim): bounds of the executing processor's portion *)
    ("dsm_this_lo", { arity = (2, 2); result = `Int; array_arg = true });
    ("dsm_this_hi", { arity = (2, 2); result = `Int; array_arg = true });
    (* dsm_owner(a, dim, index): owning processor index along a dimension *)
    ("dsm_owner", { arity = (3, 3); result = `Int; array_arg = true });
    (* dsm_distribution(a, dim): current kind code (0 star, 1 block,
       2 cyclic, 3 cyclic(k)) — useful around c$redistribute *)
    ("dsm_distribution", { arity = (2, 2); result = `Int; array_arg = true });
    (* dsm_isreshaped(a): 1 if the array is reshaped *)
    ("dsm_isreshaped", { arity = (1, 1); result = `Int; array_arg = true });
  ]

let lookup name = List.assoc_opt name table

let cycles = function
  | "sqrt" -> 20
  | "exp" | "log" | "sin" | "cos" -> 30
  | "mod" -> 35 (* integer mod uses the divider, like Idiv Hw *)
  | "dsm_nprocs" | "dsm_myproc" -> 1
  | n when String.length n > 4 && String.sub n 0 4 = "dsm_" -> 4
  | _ -> 1

type t = { words : int array; n : int }

let wbits = 62 (* stay clear of the tag bit; any bound < Sys.int_size works *)

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n + wbits - 1) / wbits) 0; n }

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Bitset: element out of universe"

let add t i =
  check t i;
  t.words.(i / wbits) <- t.words.(i / wbits) lor (1 lsl (i mod wbits))

let mem t i =
  check t i;
  t.words.(i / wbits) land (1 lsl (i mod wbits)) <> 0

let iter f t =
  for i = 0 to t.n - 1 do
    if mem t i then f i
  done

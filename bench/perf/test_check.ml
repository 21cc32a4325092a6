(* The output oracle must fail an op whose outcome differs from the
   reference in any checked way, and pass one that matches. *)

let outcome =
  {
    Check.prints = [ "sum: 44" ];
    cycles = 1000;
    counters = [ ("loads", 10); ("stores", 5) ];
    race_clean = true;
  }

let expect name want r =
  let got = Check.verdict ~expected:[ "sum: 44" ] ~reference:outcome r in
  match (want, got) with
  | `Pass, Ok () | `Fail, Error _ -> ()
  | `Pass, Error why ->
      Printf.printf "FAIL %s: rejected (%s)\n" name why;
      exit 1
  | `Fail, Ok () ->
      Printf.printf "FAIL %s: accepted a mismatching outcome\n" name;
      exit 1

let () =
  expect "matching outcome" `Pass (Ok outcome);
  expect "wrong print" `Fail (Ok { outcome with prints = [ "sum: 45" ] });
  expect "missing print" `Fail (Ok { outcome with prints = [] });
  expect "extra print" `Fail
    (Ok { outcome with prints = [ "sum: 44"; "sum: 44" ] });
  expect "cycles drift" `Fail (Ok { outcome with cycles = 1001 });
  expect "counter drift" `Fail
    (Ok { outcome with counters = [ ("loads", 10); ("stores", 6) ] });
  expect "counter missing" `Fail (Ok { outcome with counters = [ ("loads", 10) ] });
  expect "race" `Fail (Ok { outcome with race_clean = false });
  expect "op error" `Fail (Error "runtime error: deadlock");
  (* the warm-up op has no reference yet: only prints and races count *)
  match Check.verdict ~expected:[ "sum: 44" ] (Ok { outcome with cycles = 7 }) with
  | Ok () -> ()
  | Error why ->
      Printf.printf "FAIL warm-up without reference: %s\n" why;
      exit 1

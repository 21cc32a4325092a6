(* Tests for the figure harness's result series: speedup conversion and the
   table and chart printers. *)

let check_bool = Alcotest.(check bool)

let has_sub s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let series label pts =
  { Series.label; points = List.map (fun (x, y) -> { Series.x; y }) pts }

let test_series_speedup () =
  let s = Series.speedup ~baseline:100.0 ~label:"v" [ (1, 100.0); (2, 50.0); (4, 20.0) ] in
  let ys = List.map (fun p -> p.Series.y) s.Series.points in
  Alcotest.(check (list (float 1e-9))) "speedups" [ 1.0; 2.0; 5.0 ] ys

let test_series_table_chart () =
  let a = series "a" [ (1, 1.0); (2, 2.0) ] in
  let b = series "b" [ (1, 1.0); (4, 3.0) ] in
  let table = Format.asprintf "%a" (fun ppf -> Series.pp_table ~xlabel:"p" ppf) [ a; b ] in
  check_bool "table mentions both labels" true
    (String.length table > 0
    && has_sub table "a" && has_sub table "b"
    && has_sub table "-" (* missing point *));
  let chart =
    Format.asprintf "%a" (fun ppf -> Series.pp_chart ~ideal:true ~xlabel:"p" ppf) [ a; b ]
  in
  check_bool "chart has legend" true (has_sub chart "linear speedup")

let () =
  Alcotest.run "series"
    [
      ( "series",
        [
          Alcotest.test_case "speedup conversion" `Quick test_series_speedup;
          Alcotest.test_case "table & chart" `Quick test_series_table_chart;
        ] );
    ]

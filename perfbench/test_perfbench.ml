(* Exact percentiles against sort-and-index, and corrupted answers
   counted as failed ops. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun (n, cap, spread) ->
      let samples = Array.init n (fun _ -> Random.State.int rng spread - 5) in
      let recorders = [ Pct.create cap; Pct.create cap; Pct.create cap ] in
      Array.iteri (fun i v -> Pct.record (List.nth recorders (i mod 3)) v) samples;
      let merged = Pct.merge recorders in
      if Pct.count merged <> n then fail "count %d <> %d" (Pct.count merged) n;
      List.iter
        (fun p ->
          let got = Pct.quantile merged p and want = Pct.reference samples p in
          if got <> want then
            fail "n=%d cap=%d p=%g: quantile %d, sort-and-index %d" n cap p got want)
        [ 0.; 0.001; 0.25; 0.5; 0.9; 0.99; 0.999; 1. ])
    [ (1, 16, 10); (2, 16, 10); (1000, 64, 100); (10_007, 1024, 4096); (50_000, 100, 100_000) ]

let () =
  let ops, failed, corrupted = Selftest.in_process ~ops:5_000 in
  if corrupted = 0 then fail "in-process self-test corrupted nothing in %d ops" ops;
  if failed <> corrupted then fail "in-process: %d corrupted ops, %d counted failed" corrupted failed;
  let _, failed, corrupted = Selftest.served () in
  if failed <> corrupted then fail "served: %d corrupted replies, %d counted failed" corrupted failed

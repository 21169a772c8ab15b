(* perfbench: one run of one workload, ending with one JSON result line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--commit C]
     main.exe --selftest

   See README.md for the workloads and metrics. *)

open Perfbench

let scan_heavy =
  {
    Inproc.name = "scan-heavy";
    structure = "bst-vcas";
    provider = `Hardware_strict;
    key_range = 1 lsl 18;
    update_pct = 10;
    range_pct = 30;
    multiget_pct = 10;
    range_len = 100;
    multiget_keys = 16;
    warmup_rounds = 400;
  }

let update_heavy =
  {
    Inproc.name = "update-heavy";
    structure = "citrus-bundle";
    provider = `Logical;
    key_range = 16_384;
    update_pct = 50;
    range_pct = 10;
    multiget_pct = 10;
    range_len = 100;
    multiget_keys = 16;
    warmup_rounds = 2_000;
  }

let serve_pipelined =
  {
    Served.name = "serve-pipelined";
    key_space = 16_384;
    depth = 16;
    update_pct = 20;
    range_pct = 30;
    multiget_pct = 10;
    range_len = 100;
    multiget_keys = 16;
    warmup_ops = 50_000;
  }

let setups = 3

let num v =
  if Float.is_finite v then
    let s = Printf.sprintf "%.17g" v in
    if Float.is_integer v && not (String.contains s 'e') then s ^ ".0" else s
  else "0.0"

let metrics_json ms =
  ms
  |> List.map (fun (m : Report.metric) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit)
  |> String.concat ", "

let result_line ~correct ~attempted ~failed ms =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (metrics_json ms)

let provenance ~workload ~seed ~seconds ~trace ~commit =
  Printf.printf
    "{\"provenance\": {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \
     \"nproc\": %d, \"cpu_model\": %S, \"invariant_tsc\": %b, \"ocaml\": %S, \"commit\": \
     %S, \"worker_domains\": %d, \"setups\": %d}}\n\
     %!"
    workload seed seconds trace (Probe.nproc ()) (String.trim (Probe.cpu_model ()))
    (Probe.invariant_tsc ()) Sys.ocaml_version commit
    (if workload = serve_pipelined.name then 1 else Inproc.workers)
    setups

let run ~workload ~seed ~seconds ~trace ~commit =
  let traced = trace = 1 in
  let outcome, spans =
    if workload = scan_heavy.name then Inproc.run scan_heavy ~seed ~seconds ~traced ~setups
    else if workload = update_heavy.name then
      Inproc.run update_heavy ~seed ~seconds ~traced ~setups
    else if workload = serve_pipelined.name then
      Served.run serve_pipelined ~seed ~seconds ~traced ~setups
    else begin
      Printf.eprintf "perfbench: unknown workload %S\n" workload;
      exit 2
    end
  in
  provenance ~workload ~seed ~seconds ~trace ~commit;
  let o : Report.outcome = outcome in
  if traced then begin
    let dir = ".perfbench_out" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir workload seed in
    Spans.write_out path spans;
    Printf.printf "{\"spans\": %S}\n" path;
    let throughput =
      List.find (fun (m : Report.metric) -> m.name = "throughput_ops_s") o.end_to_end
    in
    let measured =
      { throughput with name = "trace.throughput_ops_s" } :: o.per_layer
    in
    (* a layer the workload does not reach reads 0 *)
    let all =
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (m : Report.metric) -> m.name = name) measured with
          | Some m -> m
          | None -> Report.m name unit 0.)
        Report.per_layer_names
    in
    result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed all
  end
  else begin
    Printf.printf "{\"reference\": {%s}}\n" (metrics_json o.reference);
    result_line ~correct:o.correct ~attempted:o.attempted ~failed:o.failed o.end_to_end
  end

let selftest () =
  let ops, failed, corrupted = Selftest.in_process ~ops:20_000 in
  let s_checked, s_failed, s_corrupted = Selftest.served () in
  Printf.printf
    "{\"selftest\": {\"in_process\": {\"ops\": %d, \"corrupted\": %d, \"failed\": %d}, \
     \"served\": {\"ops\": %d, \"corrupted\": %d, \"failed\": %d}}}\n"
    ops corrupted failed s_checked s_corrupted s_failed;
  let ok = corrupted > 0 && failed = corrupted && s_failed = s_corrupted in
  result_line ~correct:ok ~attempted:(ops + s_checked) ~failed:(failed + s_failed) [];
  if not ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let commit = ref "unknown" and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME scan-heavy | update-heavy | serve-pipelined");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--commit", Arg.Set_string commit, "C provenance: the source revision");
      ("--selftest", Arg.Set self, " check that corrupted answers count as failed ops");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then selftest ()
  else if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end
  else run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~commit:!commit

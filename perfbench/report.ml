(* What a workload hands back, and the measurements every workload shares. *)

type metric = { name : string; value : float; unit : string }

type outcome = {
  attempted : int;  (** every checked op of the run, set-up streams included *)
  failed : int;  (** ops whose answer disagreed with the model, or raised *)
  correct : bool;  (** end-of-run state checks *)
  end_to_end : metric list;
  reference : metric list;  (** printed, not bounded: tail percentiles *)
  per_layer : metric list;
}

let m name unit value = { name; value; unit }

(* Op classes, in the order the latency recorders are indexed. *)
let classes = [| "point"; "range"; "update"; "multiget" |]
let point = 0
let range = 1
let update = 2
let multiget = 3

type phase = {
  wall_ns : int;
  cpu_us : int;
  alloc_bytes : float;
  minor_collections : int;
  major_collections : int;
  promoted_bytes : float;
}

(* Runs [f] as the measured phase.  Allocation is process-wide: a minor
   collection at each boundary folds every domain's young allocation into
   the counters [Gc.quick_stat] sums. *)
let measure_phase f =
  Gc.minor ();
  let g0 = Gc.quick_stat () and cpu0, _ = Probe.rusage () in
  let t0 = Probe.now_ns () in
  let t1 = f t0 in
  Gc.minor ();
  let g1 = Gc.quick_stat () and cpu1, _ = Probe.rusage () in
  let words a b = (b -. a) *. float (Sys.word_size / 8) in
  {
    wall_ns = t1 - t0;
    cpu_us = cpu1 - cpu0;
    alloc_bytes =
      words
        (g0.minor_words +. g0.major_words -. g0.promoted_words)
        (g1.minor_words +. g1.major_words -. g1.promoted_words);
    minor_collections = g1.minor_collections - g0.minor_collections;
    major_collections = g1.major_collections - g0.major_collections;
    promoted_bytes = words g0.promoted_words g1.promoted_words;
  }

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let us_of_ns v = float v /. 1e3

(* The 13 end-to-end metrics, and the tail percentiles printed beside
   them.  [lat] holds one merged recorder per op class, in ns. *)
let end_to_end ~(lat : Pct.t array) ~ops ~(phase : phase) ~setup_s =
  let ops_f = float (max 1 ops) in
  let pct c p = us_of_ns (Pct.quantile lat.(c) p) in
  let per_class =
    List.concat_map
      (fun c ->
        let n = classes.(c) in
        [ m (n ^ "_p50_us") "us" (pct c 0.5); m (n ^ "_p90_us") "us" (pct c 0.9) ])
      [ point; range; update; multiget ]
  in
  let _, peak_kib = Probe.rusage () in
  let e2e =
    (m "throughput_ops_s" "1/s" (ops_f /. (float phase.wall_ns /. 1e9)) :: per_class)
    @ [
        m "cpu_us_per_op" "us" (float phase.cpu_us /. ops_f);
        m "alloc_bytes_per_op" "B" (phase.alloc_bytes /. ops_f);
        m "mem_peak_mb" "MB" (float peak_kib /. 1024.);
        m "setup_s" "s" setup_s;
      ]
  in
  let reference =
    List.concat_map
      (fun c ->
        let n = classes.(c) in
        [
          m (n ^ "_p99_us") "us" (pct c 0.99);
          m (n ^ "_p999_us") "us" (pct c 0.999);
          m (n ^ "_samples") "count" (float (Pct.count lat.(c)));
        ])
      [ point; range; update; multiget ]
  in
  (e2e, reference)

let gc_layer ~ops (p : phase) =
  let ops_f = float (max 1 ops) in
  [
    m "gc.minor_collections_per_kop" "1/kop"
      (float p.minor_collections *. 1000. /. ops_f);
    m "gc.major_collections" "count" (float p.major_collections);
    m "gc.promoted_bytes_per_op" "B" (p.promoted_bytes /. ops_f);
  ]

(* Registry reads: counters and histogram sums are zeroed by
   [Hwts_obs.Registry.reset_all] at the start of the measured phase. *)
let counter name =
  match Hwts_obs.Registry.counter_value name with Some v -> float v | None -> 0.

let counters_matching pred =
  List.fold_left
    (fun acc (name, metric) ->
      match metric with
      | Hwts_obs.Registry.Counter c when pred name ->
        acc +. float (Hwts_obs.Counter.sum c)
      | _ -> acc)
    0.
    (Hwts_obs.Registry.all ())

let histogram_count_sum name =
  match Hwts_obs.Registry.find name with
  | Some (Hwts_obs.Registry.Histogram h) ->
    (float (Hwts_obs.Histogram.count h), float (Hwts_obs.Histogram.sum h))
  | _ -> (0., 0.)

let watermark name =
  match Hwts_obs.Registry.find name with
  | Some (Hwts_obs.Registry.Watermark w) -> float (Hwts_obs.Watermark.get w)
  | _ -> 0.

let ratio a b = if b = 0. then 0. else a /. b

(* The core layer's counters over the measured phase. *)
let core_layer ~ops =
  let ops_f = float (max 1 ops) in
  let advances =
    counters_matching (fun n ->
        String.starts_with ~prefix:"timestamp." n
        && String.ends_with ~suffix:".advances" n)
    +. counter "snapshot.acquires"
  in
  let ties =
    counter "timestamp.strict.ties"
    +. counter "timestamp.sharded.bumps"
    +. counter "timestamp.tl2.bumps"
  in
  [
    m "core.advances_per_op" "1/op" (advances /. ops_f);
    m "core.ties_per_kop" "1/kop" (ties *. 1000. /. ops_f);
    m "core.adaptive_switches" "count" (counter "timestamp.adaptive.switches");
  ]

(* The rangequery and reclaim layers' counters over the measured phase.
   [scans] counts range and multiget ops; [ranges] and [range_keys] count
   range ops and the keys they returned. *)
let structure_layer ~ops ~updates ~scans ~ranges ~range_keys =
  let ops_f = float (max 1 ops) and updates = float updates in
  let per_op name = counter name /. ops_f in
  let per_kop name = counter name *. 1000. /. ops_f in
  let depth_n, depth_sum = histogram_count_sum "rangequery.bundle.depth" in
  let retired = counter "reclaim.retired" in
  [
    m "rangequery.vcas_read_hops_per_read" "1/op"
      (ratio (counter "rangequery.vcas.read_hops") (ops_f -. updates));
    m "rangequery.vcas_help_per_op" "1/op" (per_op "rangequery.vcas.help_attempts");
    m "rangequery.vcas_help_wins_per_attempt" "ratio"
      (ratio (counter "rangequery.vcas.help_wins") (counter "rangequery.vcas.help_attempts"));
    m "rangequery.bundle_depth_mean" "count" (ratio depth_sum depth_n);
    m "rangequery.bundle_label_waits_per_range" "1/op"
      (ratio (counter "rangequery.bundle.label_waits") (float scans));
    m "rangequery.prunes_per_update" "1/op"
      (ratio (counter "rangequery.vcas.prunes" +. counter "rangequery.bundle.prunes") updates);
    m "rangequery.registry_scans_per_op" "1/op" (per_op "rangequery.rq.slot_scans");
    m "rangequery.keys_per_range" "count" (ratio (float range_keys) (float ranges));
    m "reclaim.retired_per_update" "1/op" (ratio retired updates);
    m "reclaim.reclaimed_per_retired" "ratio" (ratio (counter "reclaim.reclaimed") retired);
    m "reclaim.grace_waits_per_kop" "1/kop" (per_kop "reclaim.grace_waits");
    m "reclaim.grace_wait_spins_per_wait" "count"
      (ratio (counter "reclaim.grace_wait_spins") (counter "reclaim.grace_waits"));
    m "reclaim.rcu_sync_spins_per_kop" "1/kop" (per_kop "rcu.sync_wait_spins");
    m "reclaim.limbo_hwm" "count" (watermark "reclaim.limbo_hwm");
    m "reclaim.announce_stores_per_op" "1/op" (per_op "reclaim.announce_stores");
  ]

(* Live heap after a full major collection, less [live0] words measured
   before the structure was built, per live key. *)
let retained_bytes_per_key ~live0 ~live_keys =
  Gc.full_major ();
  let bytes = ((Gc.stat ()).live_words - live0) * (Sys.word_size / 8) in
  m "rangequery.retained_bytes_per_key" "B" (ratio (float bytes) (float live_keys))

(* Every per-layer metric of the traced run, in print order. *)
let per_layer_names =
  [
    ("trace.throughput_ops_s", "1/s");
    ("core.advances_per_op", "1/op");
    ("core.ties_per_kop", "1/kop");
    ("core.adaptive_switches", "count");
    ("snapshot.acquire_ns_p50", "ns");
    ("snapshot.read_ns_per_key", "ns");
    ("snapshot.close_ns_p50", "ns");
    ("rangequery.vcas_read_hops_per_read", "1/op");
    ("rangequery.vcas_help_per_op", "1/op");
    ("rangequery.vcas_help_wins_per_attempt", "ratio");
    ("rangequery.bundle_depth_mean", "count");
    ("rangequery.bundle_label_waits_per_range", "1/op");
    ("rangequery.prunes_per_update", "1/op");
    ("rangequery.registry_scans_per_op", "1/op");
    ("rangequery.keys_per_range", "count");
    ("rangequery.retained_bytes_per_key", "B");
    ("reclaim.quiesce_ns_p50", "ns");
    ("reclaim.quiesce_ns_p99", "ns");
    ("reclaim.retired_per_update", "1/op");
    ("reclaim.reclaimed_per_retired", "ratio");
    ("reclaim.grace_waits_per_kop", "1/kop");
    ("reclaim.grace_wait_spins_per_wait", "count");
    ("reclaim.rcu_sync_spins_per_kop", "1/kop");
    ("reclaim.limbo_hwm", "count");
    ("reclaim.announce_stores_per_op", "1/op");
    ("serve.encode_ns_per_req", "ns");
    ("serve.decode_ns_per_resp", "ns");
    ("serve.write_us_p50", "us");
    ("serve.reply_wait_us_p50", "us");
    ("serve.acquires_per_range", "1/op");
    ("serve.batch_mean", "count");
    ("serve.bytes_per_op", "B");
    ("gc.minor_collections_per_kop", "1/kop");
    ("gc.major_collections", "count");
    ("gc.promoted_bytes_per_op", "B");
  ]

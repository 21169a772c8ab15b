(* The in-process workloads: two worker domains drive one structure in a
   closed loop.  Worker [id] updates only its own key stripe
   ([key land 1 = id]) and reads range over every key, so each worker's
   own-stripe answers are exactly predicted by a replay of its own updates
   on a membership map that shares no code with the program. *)

module Targets = Workload.Targets

type spec = {
  name : string;
  structure : string;
  provider : Targets.ts;
  key_range : int;  (** keys are [0, key_range); half are prefilled *)
  update_pct : int;
  range_pct : int;
  multiget_pct : int;  (** the rest of the mix is point lookups *)
  range_len : int;
  multiget_keys : int;
  warmup_rounds : int;  (** per worker, in set-up *)
}

let workers = 2

(* Ops between round boundaries: the loop checks its deadline and
   announces a reclamation quiescence point once per round, so every run
   is a whole number of rounds. *)
let round = 64

type target = Target : (module Dstruct.Ordered_set.RQ with type t = 'a) * 'a -> target

type worker = {
  id : int;
  model : Bytes.t;  (** own-stripe membership, indexed by key *)
  rng : Random.State.t;
  keys : int array;  (** multiget scratch *)
  spans : Spans.t option;
  lat : Pct.t array;  (** per op class, ns *)
  mutable ops : int;  (** ops of the current phase *)
  mutable checked : int;  (** ops of every phase *)
  mutable failed : int;
  mutable ranges : int;
  mutable range_keys : int;
  mutable multigets : int;
  mutable updates : int;
  mutable finished_ns : int;
}

let new_lat () = Array.init (Array.length Report.classes) (fun _ -> Pct.create 131_072)

let new_worker spec ~seed ~traced id =
  {
    id;
    model = Bytes.make spec.key_range '\000';
    rng = Random.State.make [| seed; id; 0x5eed |];
    keys = Array.make spec.multiget_keys 0;
    spans = (if traced then Some (Spans.create ~lane:id) else None);
    lat = new_lat ();
    ops = 0;
    checked = 0;
    failed = 0;
    ranges = 0;
    range_keys = 0;
    multigets = 0;
    updates = 0;
    finished_ns = 0;
  }

(* ---- the model: pure checks of one answer against one worker's map ---- *)

let present model k = Bytes.unsafe_get model k <> '\000'
let own ~id k = k land 1 = id

let point_ok ~model ~id k answer = (not (own ~id k)) || answer = present model k

let multiget_ok ~model ~id keys answers =
  Array.length answers = Array.length keys
  &&
  let ok = ref true in
  Array.iteri (fun i k -> if not (point_ok ~model ~id k answers.(i)) then ok := false) keys;
  !ok

(* Strictly increasing, inside [lo, hi], and on the own stripe exactly the
   model's keys. *)
let range_ok ~model ~id ~lo ~hi answer =
  let ok = ref true in
  let prev = ref (lo - 1) in
  let next_own = ref (if own ~id lo then lo else lo + 1) in
  let absent_until k =
    while !next_own < k do
      if present model !next_own then ok := false;
      next_own := !next_own + 2
    done
  in
  List.iter
    (fun k ->
      if k <= !prev || k > hi then ok := false;
      prev := k;
      if !ok && own ~id k then begin
        absent_until k;
        if not (present model k) then ok := false;
        next_own := k + 2
      end)
    answer;
  if !ok then absent_until (hi + 1);
  !ok

(* Replays an update on the model; true when the program's answer agrees. *)
let update_ok ~model ~insert k answer =
  let expect = if insert then not (present model k) else present model k in
  Bytes.unsafe_set model k (if insert then '\001' else '\000');
  answer = expect

(* ---- one op ---- *)

let now = Probe.now_ns

let span w kind t0 t1 =
  match w.spans with Some s -> Spans.record s kind ~op:w.checked t0 t1 | None -> ()

let multiget (type a) (module S : Dstruct.Ordered_set.RQ with type t = a) (t : a) w
    =
  match w.spans with
  | None ->
    let snap = Hwts_snapshot.acquire (module S) t in
    let answers = Hwts_snapshot.multi_get snap w.keys in
    Hwts_snapshot.close snap;
    answers
  | Some _ ->
    let t0 = now () in
    let snap = Hwts_snapshot.acquire (module S) t in
    let t1 = now () in
    let answers = Hwts_snapshot.multi_get snap w.keys in
    let t2 = now () in
    Hwts_snapshot.close snap;
    let t3 = now () in
    span w Spans.Acquire t0 t1;
    span w Spans.Read t1 t2;
    span w Spans.Close t2 t3;
    answers

(* Describes a failed op on standard error (the first few per worker). *)
let note_failure w what =
  if w.failed < 8 then
    Printf.eprintf "perfbench: worker %d op %d failed: %s\n%!" w.id w.checked (what ())

let words f l = String.concat " " (List.map f l)
let keys_str = words string_of_int

(* Draws the next op from the worker's stream, runs and times it, and
   checks the answer; false when the answer disagrees with the model. *)
let step (type a) (module S : Dstruct.Ordered_set.RQ with type t = a) (t : a)
    spec w =
  let r = Random.State.int w.rng 100 in
  let model = w.model and id = w.id in
  if r < spec.update_pct then begin
    let k = (2 * Random.State.int w.rng (spec.key_range / 2)) + id in
    let insert = Random.State.bool w.rng in
    let t0 = now () in
    let answer = if insert then S.insert t k else S.delete t k in
    Pct.record w.lat.(Report.update) (now () - t0);
    w.updates <- w.updates + 1;
    let was = present model k in
    let ok = update_ok ~model ~insert k answer in
    if not ok then
      note_failure w (fun () ->
          Printf.sprintf "%s %d returned %b, model had the key %b"
            (if insert then "insert" else "delete") k answer was);
    ok
  end
  else if r < spec.update_pct + spec.range_pct then begin
    let lo = Random.State.int w.rng (spec.key_range - spec.range_len + 1) in
    let hi = lo + spec.range_len - 1 in
    let t0 = now () in
    let answer = S.range_query t ~lo ~hi in
    Pct.record w.lat.(Report.range) (now () - t0);
    w.ranges <- w.ranges + 1;
    w.range_keys <- w.range_keys + List.length answer;
    let ok = range_ok ~model ~id ~lo ~hi answer in
    if not ok then
      note_failure w (fun () ->
          let mine =
            List.filter (fun k -> own ~id k && present model k) (List.init (hi - lo + 1) (( + ) lo))
          in
          Printf.sprintf "range [%d, %d] returned [%s], own-stripe model [%s]" lo hi
            (keys_str answer) (keys_str mine));
    ok
  end
  else if r < spec.update_pct + spec.range_pct + spec.multiget_pct then begin
    for i = 0 to Array.length w.keys - 1 do
      w.keys.(i) <- Random.State.int w.rng spec.key_range
    done;
    let t0 = now () in
    let answers = multiget (module S) t w in
    Pct.record w.lat.(Report.multiget) (now () - t0);
    w.multigets <- w.multigets + 1;
    let ok = multiget_ok ~model ~id w.keys answers in
    if not ok then
      note_failure w (fun () ->
          let expect k = if own ~id k then string_of_bool (present model k) else "-" in
          Printf.sprintf "multiget [%s] returned [%s], own-stripe model [%s]"
            (keys_str (Array.to_list w.keys))
            (words string_of_bool (Array.to_list answers))
            (words expect (Array.to_list w.keys)));
    ok
  end
  else begin
    let k = Random.State.int w.rng spec.key_range in
    let t0 = now () in
    let answer = S.contains t k in
    Pct.record w.lat.(Report.point) (now () - t0);
    let ok = point_ok ~model ~id k answer in
    if not ok then
      note_failure w (fun () ->
          Printf.sprintf "contains %d returned %b, model %b" k answer (present model k));
    ok
  end

(* Whole rounds until [stop w] holds at a round boundary. *)
let run_rounds (type a) (module S : Dstruct.Ordered_set.RQ with type t = a) (t : a)
    spec w ~stop =
  let continue = ref true in
  while !continue do
    for _ = 1 to round do
      let ok =
        try step (module S) t spec w
        with e ->
          note_failure w (fun () -> "raised " ^ Printexc.to_string e);
          false
      in
      w.ops <- w.ops + 1;
      w.checked <- w.checked + 1;
      if not ok then w.failed <- w.failed + 1
    done;
    (match w.spans with
    | None -> S.quiesce t
    | Some _ ->
      let t0 = now () in
      S.quiesce t;
      span w Spans.Quiesce t0 (now ()));
    if stop w then continue := false
  done;
  S.offline t;
  w.finished_ns <- now ()

let in_workers ws f =
  List.map (fun w -> Domain.spawn (fun () -> f w)) ws |> List.iter Domain.join

(* ---- set-up and the final state check ---- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

type session = {
  target : target;
  ws : worker list;
  prefilled : int;
  prefill_failed : int;  (** prefill inserts that returned false *)
}

(* Build, prefill half the keys in a seeded random order, then run the
   fixed warm-up stream on both workers. *)
let setup spec ~seed ws =
  let inst = Targets.instance spec.structure spec.provider in
  let (module S) = inst.structure in
  let t = S.create () in
  let rng = Random.State.make [| seed; 0xf111 |] in
  let keys =
    Array.of_list
      (List.filter (fun _ -> Random.State.bool rng) (List.init spec.key_range Fun.id))
  in
  shuffle rng keys;
  let models = Array.of_list (List.map (fun w -> w.model) ws) in
  let prefill_failed = ref 0 in
  Array.iter
    (fun k ->
      if not (S.insert t k) then incr prefill_failed;
      Bytes.set models.(k land 1) k '\001')
    keys;
  S.offline t;
  in_workers ws (fun w ->
      run_rounds (module S) t spec w ~stop:(fun w -> w.ops >= spec.warmup_rounds * round));
  List.iter
    (fun w ->
      w.ops <- 0;
      Array.iter Pct.reset w.lat)
    ws;
  { target = Target ((module S), t); ws; prefilled = Array.length keys; prefill_failed = !prefill_failed }

(* The quiescent contents must be the union of the workers' models. *)
let final_ok spec s =
  let (Target ((module S), t)) = s.target in
  let models = Array.of_list (List.map (fun w -> w.model) s.ws) in
  let expect = ref [] in
  for k = spec.key_range - 1 downto 0 do
    if present models.(k land 1) k then expect := k :: !expect
  done;
  S.to_list t = !expect

let sum ws f = List.fold_left (fun acc w -> acc + f w) 0 ws

(* [setups] set-ups (the median is [setup_s]), then the measured phase on
   the last one. *)
let run spec ~seed ~seconds ~traced ~setups =
  let attempted = ref 0 and failed = ref 0 and setup_times = ref [] in
  let account s =
    attempted := !attempted + s.prefilled + sum s.ws (fun w -> w.checked);
    failed := !failed + s.prefill_failed + sum s.ws (fun w -> w.failed)
  in
  let last = ref None in
  for i = 1 to setups do
    Option.iter (fun (s, _) -> account s) !last;
    last := None;
    Gc.compact ();
    let ws = List.init workers (new_worker spec ~seed ~traced) in
    let live0 = if traced && i = setups then (Gc.stat ()).live_words else 0 in
    let t0 = now () in
    let s = setup spec ~seed ws in
    setup_times := (float (now () - t0) /. 1e9) :: !setup_times;
    last := Some (s, live0)
  done;
  let s, live0 = Option.get !last in
  let ws = s.ws in
  let (Target ((module S), t)) = s.target in
  Hwts_obs.Registry.reset_all ();
  let phase =
    Report.measure_phase (fun t0 ->
        let stop_at = t0 + (seconds * 1_000_000_000) in
        in_workers ws (fun w -> run_rounds (module S) t spec w ~stop:(fun _ -> now () >= stop_at));
        List.fold_left (fun acc w -> max acc w.finished_ns) t0 ws)
  in
  let ops = sum ws (fun w -> w.ops) in
  let lat =
    Array.init (Array.length Report.classes) (fun c ->
        Pct.merge (List.map (fun w -> w.lat.(c)) ws))
  in
  let end_to_end, reference =
    Report.end_to_end ~lat ~ops ~phase ~setup_s:(Report.median !setup_times)
  in
  let per_layer =
    if not traced then []
    else begin
      let open Report in
      let spans = List.filter_map (fun w -> w.spans) ws in
      let dur k = Spans.durations spans k in
      let ns k p = float (Pct.quantile (dur k) p) in
      let ranges = sum ws (fun w -> w.ranges) in
      let counted =
        core_layer ~ops
        @ structure_layer ~ops
            ~updates:(sum ws (fun w -> w.updates))
            ~scans:(ranges + sum ws (fun w -> w.multigets))
            ~ranges
            ~range_keys:(sum ws (fun w -> w.range_keys))
      in
      let timed =
        [
          m "snapshot.acquire_ns_p50" "ns" (ns Spans.Acquire 0.5);
          m "snapshot.read_ns_per_key" "ns"
            (Pct.mean (dur Spans.Read) /. float spec.multiget_keys);
          m "snapshot.close_ns_p50" "ns" (ns Spans.Close 0.5);
          m "reclaim.quiesce_ns_p50" "ns" (ns Spans.Quiesce 0.5);
          m "reclaim.quiesce_ns_p99" "ns" (ns Spans.Quiesce 0.99);
        ]
      in
      let retained = retained_bytes_per_key ~live0 ~live_keys:(S.size t) in
      (retained :: counted) @ timed @ gc_layer ~ops phase
    end
  in
  let correct = final_ok spec s in
  account s;
  let outcome =
    { Report.attempted = !attempted; failed = !failed; correct; end_to_end; reference; per_layer }
  in
  (outcome, List.filter_map (fun w -> w.spans) ws)

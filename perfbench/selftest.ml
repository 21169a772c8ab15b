(* Corrupted answers must be counted as failed ops.

   In process: a wrapper around a real structure flips every point and
   snapshot membership answer for the keys [k] with [k land 1 = 0] and
   [k mod 7 = 0] (the own stripe of worker 0), and drops the first
   own-stripe key of every range answer.  Worker 0's loop must count
   exactly the ops whose answer was corrupted.

   Served: the client's completion path is fed a flipped [Bool] and a
   range reply with one key dropped, each of which must count as one
   failed op, next to correct replies that must not. *)

let hit = ref false
let corrupt k = k land 1 = 0 && k mod 7 = 0

module Corrupt (S : Dstruct.Ordered_set.RQ) : Dstruct.Ordered_set.RQ = struct
  include S

  let flip k b =
    if corrupt k then begin
      hit := true;
      not b
    end
    else b

  let contains t k = flip k (S.contains t k)
  let lookup_at t s k = flip k (S.lookup_at t s k)

  let range_query t ~lo ~hi =
    let keys = S.range_query t ~lo ~hi in
    match List.find_opt (fun k -> k land 1 = 0) keys with
    | Some dropped ->
      hit := true;
      List.filter (fun k -> k <> dropped) keys
    | None -> keys
end

let spec =
  {
    Inproc.name = "selftest";
    structure = "bst-vcas";
    provider = `Logical;
    key_range = 1024;
    update_pct = 30;
    range_pct = 30;
    multiget_pct = 10;
    range_len = 100;
    multiget_keys = 16;
    warmup_rounds = 0;
  }

(* (ops run, ops counted failed, ops whose answer was corrupted) *)
let in_process ~ops =
  let module S = Corrupt ((val Workload.Targets.bst_vcas `Logical)) in
  let t = S.create () in
  let w = Inproc.new_worker spec ~seed:1 ~traced:false 0 in
  let corrupted = ref 0 and failed = ref 0 in
  for _ = 1 to ops do
    hit := false;
    if not (Inproc.step (module S) t spec w) then incr failed;
    if !hit then incr corrupted
  done;
  (ops, !failed, !corrupted)

let served () =
  let c =
    {
      Served.fd = Unix.stdin;
      model = Served.new_model 64;
      rng = Random.State.make [| 1 |];
      out = Buffer.create 256;
      inbuf = Bytes.create 16;
      dec = Serve.Wire.decoder ();
      window = Queue.create ();
      spans = None;
      lat = Array.init 4 (fun _ -> Pct.create 16);
      submitted = 0;
      completed = 0;
      checked = 0;
      failed = 0;
      ranges = 0;
      range_keys = 0;
      bytes = 0;
    }
  in
  let update k =
    let owed = Served.submit_update c.model ~insert:true k in
    Served.send c Report.update (Insert k) (Exact owed);
    Served.complete c (Bool owed)
  in
  List.iter update [ 3; 5; 9 ];
  (* a flipped Bool *)
  Served.send c Report.point (Get 5) (Exact true);
  Served.complete c (Bool false);
  (* a range with one key dropped *)
  Served.send c Report.range (Range (1, 10)) (Range_at (1, 10, c.model.updates));
  Served.complete c (Keys (0, [| 3; 9 |]));
  (* a range that saw an update submitted after it, before its reply *)
  Served.send c Report.range (Range (1, 10)) (Range_at (1, 10, c.model.updates));
  ignore (Served.submit_update c.model ~insert:true 7);
  Served.complete c (Keys (0, [| 3; 5; 7; 9 |]));
  (c.checked, c.failed, 2)

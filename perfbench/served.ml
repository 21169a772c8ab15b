(* The served workload: the server's own defaults (bst-vcas over the
   logical clock, coalescing on) behind [Serve.Server] on loopback, with
   one shard domain, driven by this module's client on one connection
   that keeps [depth] requests outstanding.  The client runs on the main
   domain next to the server's connection threads, so the process has
   two domains doing work, both pinned to one CPU.

   Correctness.  A shard runs the point ops of each drained batch in
   arrival order, then every read of the batch under one snapshot taken
   after them, so a Range or MultiGet may observe updates submitted after
   it on the same connection, but only ones already submitted when its
   reply arrives.  Gets and updates are therefore checked against the
   sequential model exactly; a read is checked to equal the model's state
   after some prefix of the updates, at least those submitted before it
   and at most those submitted before its reply was decoded. *)

type spec = {
  name : string;
  key_space : int;  (** keys are [1, key_space]; half are prefilled *)
  depth : int;  (** requests outstanding on the connection *)
  update_pct : int;
  range_pct : int;
  multiget_pct : int;  (** the rest of the mix is Get *)
  range_len : int;
  multiget_keys : int;
  warmup_ops : int;
}

let round = 64

(* One update, as the model applied it: [prev] is the key's membership
   before, [next] after. *)
type entry = { key : int; prev : bool; next : bool }

type model = {
  mem : Bytes.t;  (** membership after every update submitted so far *)
  mutable updates : int;  (** updates submitted so far *)
  log : entry array;  (** update [u] at [u mod log_size] *)
}

let log_size = 1024

let new_model key_space =
  {
    mem = Bytes.make (key_space + 1) '\000';
    updates = 0;
    log = Array.make log_size { key = 0; prev = false; next = false };
  }

let present m k = Bytes.unsafe_get m.mem k <> '\000'

(* Applies an update at submission; returns the answer the server owes. *)
let submit_update m ~insert k =
  let prev = present m k in
  m.updates <- m.updates + 1;
  m.log.(m.updates mod log_size) <- { key = k; prev; next = insert };
  Bytes.unsafe_set m.mem k (if insert then '\001' else '\000');
  if insert then not prev else prev

(* Whether [matches] holds for the membership after some prefix of
   updates [u] with [since <= u <= m.updates] (see the header comment).
   [touches] says which keys the read looks at. *)
let read_ok m ~since ~touches ~matches =
  let window = ref [] in
  for u = m.updates downto since + 1 do
    let e = m.log.(u mod log_size) in
    if touches e.key then window := e :: !window
  done;
  match !window with
  | [] -> matches (present m)
  | entries ->
    let at = Hashtbl.create 8 in
    List.iter (fun e -> Hashtbl.replace at e.key e.prev) (List.rev entries);
    let mem k = match Hashtbl.find_opt at k with Some b -> b | None -> present m k in
    matches mem
    || List.exists
         (fun e ->
           Hashtbl.replace at e.key e.next;
           matches mem)
         entries

let range_matches ~lo ~hi (keys : int array) mem =
  let i = ref 0 and ok = ref true in
  for k = lo to hi do
    if !ok && mem k then
      if !i < Array.length keys && keys.(!i) = k then incr i else ok := false
  done;
  !ok && !i = Array.length keys

let multiget_matches keys (answers : bool array) mem =
  Array.length answers = Array.length keys
  && Array.for_all2 (fun k b -> mem k = b) keys answers

(* What a request is owed, fixed when it is submitted. *)
type expect =
  | Exact of bool  (** Get / Insert / Delete *)
  | Range_at of int * int * int  (** lo, hi, updates submitted before it *)
  | Multiget_at of int array * int

let response_ok m expect (r : Serve.Wire.response) =
  match (expect, r) with
  | Exact b, Bool b' -> b = b'
  | Range_at (lo, hi, since), Keys (_, keys) ->
    read_ok m ~since
      ~touches:(fun k -> k >= lo && k <= hi)
      ~matches:(range_matches ~lo ~hi keys)
  | Multiget_at (keys, since), Bools (_, answers) ->
    read_ok m ~since
      ~touches:(fun k -> Array.mem k keys)
      ~matches:(multiget_matches keys answers)
  | _ -> false

(* ---- the client ---- *)

type pending = { cls : int; t_enc : int; expect : expect; op : int }

type client = {
  fd : Unix.file_descr;
  model : model;
  rng : Random.State.t;
  out : Buffer.t;
  inbuf : Bytes.t;
  dec : Serve.Wire.decoder;
  window : pending Queue.t;
  spans : Spans.t option;
  lat : Pct.t array;
  mutable submitted : int;
  mutable completed : int;  (** this phase *)
  mutable checked : int;  (** every phase *)
  mutable failed : int;
  mutable ranges : int;
  mutable range_keys : int;
  mutable bytes : int;  (** written + read, this phase *)
}

let new_lat () = Array.init (Array.length Report.classes) (fun _ -> Pct.create 262_144)
let now = Probe.now_ns

(* Span clock reads happen only in the traced run. *)
let stamp c = match c.spans with Some _ -> now () | None -> 0

let span c kind ~op t0 t1 =
  match c.spans with Some s -> Spans.record s kind ~op t0 t1 | None -> ()

let send c cls (req : Serve.Wire.request) expect =
  let t_enc = now () in
  Serve.Wire.encode_request c.out req;
  span c Spans.Encode ~op:c.submitted t_enc (stamp c);
  Queue.push { cls; t_enc; expect; op = c.submitted } c.window;
  c.submitted <- c.submitted + 1

let next_mixed spec c () =
  let m = c.model and rng = c.rng in
  let r = Random.State.int rng 100 in
  if r < spec.update_pct then begin
    let k = 1 + Random.State.int rng spec.key_space in
    let insert = Random.State.bool rng in
    let owed = submit_update m ~insert k in
    send c Report.update (if insert then Insert k else Delete k) (Exact owed)
  end
  else if r < spec.update_pct + spec.range_pct then begin
    let lo = 1 + Random.State.int rng (spec.key_space - spec.range_len + 1) in
    let hi = lo + spec.range_len - 1 in
    send c Report.range (Range (lo, hi)) (Range_at (lo, hi, m.updates))
  end
  else if r < spec.update_pct + spec.range_pct + spec.multiget_pct then begin
    let keys = Array.init spec.multiget_keys (fun _ -> 1 + Random.State.int rng spec.key_space) in
    send c Report.multiget (MultiGet keys) (Multiget_at (keys, m.updates))
  end
  else begin
    let k = 1 + Random.State.int rng spec.key_space in
    send c Report.point (Get k) (Exact (present m k))
  end

let flush c =
  if Buffer.length c.out > 0 then begin
    let s = Buffer.contents c.out in
    Buffer.clear c.out;
    let t0 = stamp c in
    let rec go off =
      if off < String.length s then
        go (off + Unix.write_substring c.fd s off (String.length s - off))
    in
    go 0;
    span c Spans.Write ~op:c.submitted t0 (stamp c);
    c.bytes <- c.bytes + String.length s
  end

let complete c (r : Serve.Wire.response) =
  let p = Queue.pop c.window in
  Pct.record c.lat.(p.cls) (now () - p.t_enc);
  (match r with
  | Keys (_, keys) ->
    c.ranges <- c.ranges + 1;
    c.range_keys <- c.range_keys + Array.length keys
  | _ -> ());
  c.completed <- c.completed + 1;
  c.checked <- c.checked + 1;
  if not (response_ok c.model p.expect r) then c.failed <- c.failed + 1

(* Closed loop: keep [depth] requests outstanding, submitting from [next]
   until [stop] holds before a submission, then collect every reply. *)
let drive c ~depth ~next ~stop =
  let stopping = ref false in
  let top_up () =
    while (not !stopping) && Queue.length c.window < depth do
      if stop () then stopping := true else next ()
    done
  in
  top_up ();
  flush c;
  while not (Queue.is_empty c.window) do
    let t0 = stamp c in
    let n = Unix.read c.fd c.inbuf 0 (Bytes.length c.inbuf) in
    span c Spans.Wait ~op:(Queue.peek c.window).op t0 (stamp c);
    if n = 0 then failwith "server closed the connection";
    c.bytes <- c.bytes + n;
    Serve.Wire.feed c.dec c.inbuf 0 n;
    let rec drain () =
      let t0 = stamp c in
      match Serve.Wire.next_response c.dec with
      | Some r ->
        span c Spans.Decode ~op:(Queue.peek c.window).op t0 (stamp c);
        complete c r;
        drain ()
      | None -> ()
    in
    drain ();
    top_up ();
    flush c
  done

type session = { server : Serve.Server.t; client : client }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  fd

(* Start the server, connect, prefill half the keys in a seeded random
   order over the wire, then run the fixed warm-up stream. *)
let setup spec ~seed ~lat ~spans =
  (* The shard domain, the client and the server's connection threads all
     run on CPU 0 (the shard domain inherits the mask).  Every request
     passes between them several times; on two CPUs each pass can wake an
     idle virtual CPU, whose wake-up time is the host's, and throughput
     then swung 4x from one second to the next.  On one CPU each pass is
     a local context switch. *)
  if Probe.nproc () >= 2 then ignore (Probe.pin_to_cpu 0);
  let shards =
    Serve.Shards.create ~structure:"bst-vcas" ~provider:`Logical ~shards:1
      ~key_space:spec.key_space ~coalesce:true ()
  in
  let server = Serve.Server.start ~port:0 shards in
  let c =
    {
      fd = connect (Serve.Server.port server);
      model = new_model spec.key_space;
      rng = Random.State.make [| seed; 0x5e4e |];
      out = Buffer.create 65_536;
      inbuf = Bytes.create 65_536;
      dec = Serve.Wire.decoder ();
      window = Queue.create ();
      spans;
      lat;
      submitted = 0;
      completed = 0;
      checked = 0;
      failed = 0;
      ranges = 0;
      range_keys = 0;
      bytes = 0;
    }
  in
  let rng = Random.State.make [| seed; 0xf111 |] in
  let keys =
    Array.of_list
      (List.filter (fun _ -> Random.State.bool rng) (List.init spec.key_space succ))
  in
  Inproc.shuffle rng keys;
  let i = ref 0 in
  drive c ~depth:spec.depth
    ~next:(fun () ->
      let k = keys.(!i) in
      incr i;
      let owed = submit_update c.model ~insert:true k in
      send c Report.update (Insert k) (Exact owed))
    ~stop:(fun () -> !i >= Array.length keys);
  let warm_until = c.submitted + spec.warmup_ops in
  drive c ~depth:spec.depth ~next:(next_mixed spec c) ~stop:(fun () -> c.submitted >= warm_until);
  c.completed <- 0;
  c.bytes <- 0;
  c.ranges <- 0;
  c.range_keys <- 0;
  Array.iter Pct.reset c.lat;
  { server; client = c }

(* The whole key space in one Range, with nothing else outstanding, must
   equal the model. *)
let final_ok spec s =
  let c = s.client in
  let before = c.failed and sent = ref false in
  drive c ~depth:1
    ~next:(fun () ->
      sent := true;
      send c Report.range
        (Range (1, spec.key_space))
        (Range_at (1, spec.key_space, c.model.updates)))
    ~stop:(fun () -> !sent);
  c.failed = before

let teardown s =
  (try Unix.close s.client.fd with _ -> ());
  Serve.Server.stop s.server

let run spec ~seed ~seconds ~traced ~setups =
  let attempted = ref 0 and failed = ref 0 and setup_times = ref [] in
  let last = ref None in
  let account s =
    attempted := !attempted + s.client.checked;
    failed := !failed + s.client.failed
  in
  for i = 1 to setups do
    Option.iter
      (fun (s, _) ->
        account s;
        teardown s)
      !last;
    last := None;
    Gc.compact ();
    let lat = new_lat () in
    let spans = if traced then Some (Spans.create ~lane:0) else None in
    let live0 = if traced && i = setups then (Gc.stat ()).live_words else 0 in
    let t0 = now () in
    let s = setup spec ~seed ~lat ~spans in
    setup_times := (float (now () - t0) /. 1e9) :: !setup_times;
    last := Some (s, live0)
  done;
  let s, live0 = Option.get !last in
  let c = s.client in
  Hwts_obs.Registry.reset_all ();
  let phase =
    Report.measure_phase (fun t0 ->
        let stop_at = t0 + (seconds * 1_000_000_000) in
        let start = c.submitted in
        drive c ~depth:spec.depth ~next:(next_mixed spec c)
          ~stop:(fun () -> (c.submitted - start) mod round = 0 && now () >= stop_at);
        now ())
  in
  let ops = c.completed in
  let end_to_end, reference =
    Report.end_to_end ~lat:c.lat ~ops ~phase ~setup_s:(Report.median !setup_times)
  in
  let per_layer =
    if not traced then []
    else begin
      let open Report in
      let dur k = Spans.durations (Option.to_list c.spans) k in
      let us k = us_of_ns (Pct.quantile (dur k) 0.5) in
      let batch_n, batch_sum = histogram_count_sum "serve.rq.batch" in
      let counted =
        core_layer ~ops
        @ structure_layer ~ops
            ~updates:(Pct.count c.lat.(update))
            ~scans:(c.ranges + Pct.count c.lat.(multiget))
            ~ranges:c.ranges ~range_keys:c.range_keys
      in
      let timed =
        [
          m "serve.encode_ns_per_req" "ns" (Pct.mean (dur Spans.Encode));
          m "serve.decode_ns_per_resp" "ns" (Pct.mean (dur Spans.Decode));
          m "serve.write_us_p50" "us" (us Spans.Write);
          m "serve.reply_wait_us_p50" "us" (us Spans.Wait);
          m "serve.acquires_per_range" "1/op"
            (ratio (counter "serve.rq.snapshots") (counter "serve.rq.ops"));
          m "serve.batch_mean" "count" (ratio batch_sum batch_n);
          m "serve.bytes_per_op" "B" (float c.bytes /. float (max 1 ops));
        ]
      in
      let live_keys = Bytes.fold_left (fun n b -> if b <> '\000' then n + 1 else n) 0 c.model.mem in
      let retained = retained_bytes_per_key ~live0 ~live_keys in
      (retained :: counted) @ timed @ gc_layer ~ops phase
    end
  in
  let correct = final_ok spec s in
  account s;
  teardown s;
  let outcome =
    { Report.attempted = !attempted; failed = !failed; correct; end_to_end; reference; per_layer }
  in
  (outcome, Option.to_list c.spans)

(* Spans the traced run records around calls into the program's layers.

   Every span's duration goes into an exact per-kind recorder, so the
   per-layer figures cover every call; the first [log_cap] spans of each
   recorder are also kept verbatim and written out when the run ends. *)

type kind =
  | Acquire  (** Hwts_snapshot.acquire: label + pin *)
  | Read  (** Hwts_snapshot.multi_get over one handle *)
  | Close  (** Hwts_snapshot.close *)
  | Quiesce  (** S.quiesce at a round boundary *)
  | Encode  (** Wire.encode_request *)
  | Write  (** socket write of the encoded requests *)
  | Wait  (** socket read that blocks until replies arrive *)
  | Decode  (** Wire.next_response yielding one frame *)

let kinds = [ Acquire; Read; Close; Quiesce; Encode; Write; Wait; Decode ]

let index = function
  | Acquire -> 0
  | Read -> 1
  | Close -> 2
  | Quiesce -> 3
  | Encode -> 4
  | Write -> 5
  | Wait -> 6
  | Decode -> 7

let name = function
  | Acquire -> "snapshot.acquire"
  | Read -> "snapshot.read"
  | Close -> "snapshot.close"
  | Quiesce -> "reclaim.quiesce"
  | Encode -> "serve.encode"
  | Write -> "serve.write"
  | Wait -> "serve.reply_wait"
  | Decode -> "serve.decode"

let log_cap = 50_000

type t = {
  lane : int;  (** worker id, or 0 for the serve client *)
  durations : Pct.t array;
  log : int array;  (** kind index, op id, start ns, end ns *)
  mutable logged : int;
}

let create ~lane =
  {
    lane;
    durations = Array.init (List.length kinds) (fun _ -> Pct.create 65_536);
    log = Array.make (4 * log_cap) 0;
    logged = 0;
  }

let record t kind ~op t0 t1 =
  let k = index kind in
  Pct.record t.durations.(k) (t1 - t0);
  if t.logged < log_cap then begin
    let b = 4 * t.logged in
    t.log.(b) <- k;
    t.log.(b + 1) <- op;
    t.log.(b + 2) <- t0;
    t.log.(b + 3) <- t1;
    t.logged <- t.logged + 1
  end

let durations ts kind = Pct.merge (List.map (fun t -> t.durations.(index kind)) ts)

(* One JSON object per span; spans of one operation share its op id. *)
let write_out path ts =
  let oc = open_out path in
  let names = Array.of_list (List.map name kinds) in
  List.iter
    (fun t ->
      for i = 0 to t.logged - 1 do
        let b = 4 * i in
        Printf.fprintf oc
          "{\"span\":%S,\"lane\":%d,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
          names.(t.log.(b)) t.lane t.log.(b + 1) t.log.(b + 2) t.log.(b + 3)
      done)
    ts;
  close_out oc

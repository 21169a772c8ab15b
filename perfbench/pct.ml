(* Exact percentiles over every recorded sample.

   A sample below [cap] is counted in its own slot (a counting sort at
   1-unit resolution); a larger one is kept verbatim.  A quantile is then
   the nearest-rank element of the full sorted sample, with no bucket
   error, in O(cap + overflow) time and O(cap) memory however many
   samples were recorded. *)

type t = {
  counts : int array;
  mutable over : int array;
  mutable n_over : int;
  mutable n : int;
  mutable sum : int;
}

let create cap =
  { counts = Array.make cap 0; over = [||]; n_over = 0; n = 0; sum = 0 }

let push_over t v =
  if t.n_over = Array.length t.over then begin
    let grown = Array.make (max 64 (2 * t.n_over)) 0 in
    Array.blit t.over 0 grown 0 t.n_over;
    t.over <- grown
  end;
  t.over.(t.n_over) <- v;
  t.n_over <- t.n_over + 1

let record t v =
  let v = if v < 0 then 0 else v in
  if v < Array.length t.counts then
    Array.unsafe_set t.counts v (Array.unsafe_get t.counts v + 1)
  else push_over t v;
  t.n <- t.n + 1;
  t.sum <- t.sum + v

let reset t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.n_over <- 0;
  t.n <- 0;
  t.sum <- 0

let count t = t.n
let mean t = if t.n = 0 then 0. else float t.sum /. float t.n

(* Sum of several recorders of equal [cap] (one per worker). *)
let merge = function
  | [] -> invalid_arg "Pct.merge"
  | first :: _ as ts ->
    let m = create (Array.length first.counts) in
    List.iter
      (fun t ->
        Array.iteri (fun i c -> m.counts.(i) <- m.counts.(i) + c) t.counts;
        for i = 0 to t.n_over - 1 do
          push_over m t.over.(i)
        done;
        m.n <- m.n + t.n;
        m.sum <- m.sum + t.sum)
      ts;
    m

(* Nearest rank: the [ceil (p * n)]-th smallest sample (1-based), so
   [quantile t 0.5] of [1; 2; 3; 4] is 2 and of [1; 2; 3] is 2. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p *. float n))))

let quantile t p =
  if t.n = 0 then 0
  else begin
    let r = rank ~n:t.n p in
    let cap = Array.length t.counts in
    let rec walk i seen =
      if i = cap then begin
        let over = Array.sub t.over 0 t.n_over in
        Array.sort compare over;
        over.(r - seen - 1)
      end
      else
        let seen' = seen + t.counts.(i) in
        if seen' >= r then i else walk (i + 1) seen'
    in
    walk 0 0
  end

(* The definition [quantile] must agree with: sort, then index. *)
let reference samples p =
  let a = Array.map (fun v -> max 0 v) samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0 else a.(rank ~n p - 1)

module Hk = Ftsched_ds.Hopcroft_karp
module Comm_plan = Ftsched_schedule.Comm_plan

exception Infeasible of string

let infeasible fmt = Format.kasprintf (fun s -> raise (Infeasible s)) fmt

type t = {
  mutable k : int;
  mutable weight : float array;  (* k × k, row-major by left *)
  mutable n : int;  (* candidates, in the order added *)
  mutable c_left : int array;
  mutable c_right : int array;
  mutable c_forced : bool array;
  mutable left_taken : bool array;  (* k *)
  mutable right_taken : bool array;  (* k *)
  mutable fan_in : int array;  (* k: the redundant rule's senders per right *)
  mutable picked : bool array;  (* k × k: the redundant rule's pairs *)
  mutable n_sel : int;  (* the selection, in selection order *)
  mutable sel_left : int array;
  mutable sel_right : int array;
  mutable pair_k : int;  (* the k [pair_of] was built for *)
  mutable pair_of : Comm_plan.pair array;  (* k × k, row-major by left *)
}

let create () =
  {
    k = 0;
    weight = [||];
    n = 0;
    c_left = [||];
    c_right = [||];
    c_forced = [||];
    left_taken = [||];
    right_taken = [||];
    fan_in = [||];
    picked = [||];
    n_sel = 0;
    sel_left = [||];
    sel_right = [||];
    pair_k = 0;
    pair_of = [||];
  }

let reset t ~k =
  if k < 1 then invalid_arg "Edge_select.reset: need k >= 1";
  if Array.length t.left_taken < k then begin
    let kk = k * k in
    t.weight <- Array.make kk 0.;
    t.c_left <- Array.make kk 0;
    t.c_right <- Array.make kk 0;
    t.c_forced <- Array.make kk false;
    t.left_taken <- Array.make k false;
    t.right_taken <- Array.make k false;
    t.fan_in <- Array.make k 0;
    t.picked <- Array.make kk false;
    t.sel_left <- Array.make kk 0;
    t.sel_right <- Array.make kk 0
  end;
  t.k <- k;
  t.n <- 0;
  t.n_sel <- 0

let weights t = t.weight

let add t ~left ~right ~forced =
  let i = t.n in
  t.c_left.(i) <- left;
  t.c_right.(i) <- right;
  t.c_forced.(i) <- forced;
  t.n <- i + 1

let selected t = t.n_sel

(* The message records are immutable, so one per (left, right) serves
   every selection: an MC-FTSA plan holds one cons cell per message. *)
let selected_pairs t =
  let k = t.k in
  if t.pair_k <> k then begin
    t.pair_of <-
      Array.init (k * k) (fun i ->
          { Comm_plan.src_replica = i / k; dst_replica = i mod k });
    t.pair_k <- k
  end;
  let acc = ref [] in
  for i = t.n_sel - 1 downto 0 do
    acc := t.pair_of.((t.sel_left.(i) * k) + t.sel_right.(i)) :: !acc
  done;
  !acc
let selected_left t i = t.sel_left.(i)
let selected_right t i = t.sel_right.(i)
let[@inline] cand_weight t i = t.weight.((t.c_left.(i) * t.k) + t.c_right.(i))

let[@inline] select t l r =
  t.sel_left.(t.n_sel) <- l;
  t.sel_right.(t.n_sel) <- r;
  t.n_sel <- t.n_sel + 1

(* [i] strictly before [j] in increasing (weight, left, right) order,
   ties in the order added — the list version's stable sort. *)
let before t i j =
  match Float.compare (cand_weight t i) (cand_weight t j) with
  | 0 ->
      let li = t.c_left.(i) and lj = t.c_left.(j) in
      if li <> lj then li < lj
      else
        let ri = t.c_right.(i) and rj = t.c_right.(j) in
        if ri <> rj then ri < rj else i < j
  | c -> c < 0

let take t i =
  let l = t.c_left.(i) and r = t.c_right.(i) in
  t.left_taken.(l) <- true;
  t.right_taken.(r) <- true;
  select t l r

(* A scan in sorted order keeps a candidate iff both its nodes are still
   free, and a candidate it skips never becomes free again: so the next
   kept one is always the least free candidate.  At most k rounds of one
   pass each, instead of a sort. *)
let rec greedy_rounds t =
  let best = ref (-1) in
  for i = 0 to t.n - 1 do
    if
      (not (t.left_taken.(t.c_left.(i)) || t.right_taken.(t.c_right.(i))))
      && (!best < 0 || before t i !best)
    then best := i
  done;
  if !best >= 0 then begin
    take t !best;
    greedy_rounds t
  end

let greedy t =
  let k = t.k in
  Array.fill t.left_taken 0 k false;
  Array.fill t.right_taken 0 k false;
  t.n_sel <- 0;
  (* Forced (internal) edges have absolute priority. *)
  for i = 0 to t.n - 1 do
    if t.c_forced.(i) then begin
      if t.left_taken.(t.c_left.(i)) || t.right_taken.(t.c_right.(i)) then
        infeasible "conflicting forced edges (left %d / right %d)" t.c_left.(i)
          t.c_right.(i);
      take t i
    end
  done;
  greedy_rounds t;
  for l = 0 to k - 1 do
    if not t.left_taken.(l) then
      infeasible "greedy selection could not saturate every source replica"
  done;
  for r = 0 to k - 1 do
    if not t.right_taken.(r) then
      infeasible "greedy selection could not saturate every target replica"
  done

(* Matching restricted to candidates of weight <= threshold; each
   adjacency list holds its left node's rights newest first. *)
let matching_under t threshold =
  let adj = Array.make t.k [] in
  for i = 0 to t.n - 1 do
    if cand_weight t i <= threshold then
      adj.(t.c_left.(i)) <- t.c_right.(i) :: adj.(t.c_left.(i))
  done;
  Hk.max_matching ~n_left:t.k ~n_right:t.k ~adj

let bottleneck_result t =
  if t.n = 0 then infeasible "no edges";
  (* the sorted distinct weights *)
  let weights = Array.init t.n (cand_weight t) in
  Array.sort Float.compare weights;
  let distinct = ref 1 in
  for i = 1 to t.n - 1 do
    if Float.compare weights.(i) weights.(!distinct - 1) <> 0 then begin
      weights.(!distinct) <- weights.(i);
      incr distinct
    end
  done;
  (* Binary search for the smallest threshold admitting a perfect
     matching. *)
  let feasible_at idx =
    let r = matching_under t weights.(idx) in
    if Hk.is_perfect_on_left r then Some r else None
  in
  let lo = ref 0 and hi = ref (!distinct - 1) in
  if feasible_at !hi = None then
    infeasible "no one-to-one selection exists even with all edges";
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    match feasible_at mid with
    | Some _ -> hi := mid
    | None -> lo := mid + 1
  done;
  match feasible_at !lo with
  | Some r -> (weights.(!lo), r)
  | None -> assert false

let bottleneck t =
  let _, r = bottleneck_result t in
  t.n_sel <- 0;
  Array.iteri (fun l rgt -> select t l rgt) r.Hk.match_left

let bottleneck_value t = fst (bottleneck_result t)

(* Extra senders for {!redundant}: as in {!greedy_rounds}, a candidate
   once ineligible stays so, so each round keeps the least eligible one,
   by weight, ties in the order added. *)
let rec redundant_rounds t ~senders =
  let k = t.k in
  let best = ref (-1) in
  for i = 0 to t.n - 1 do
    if
      (not t.c_forced.(i))
      && t.fan_in.(t.c_right.(i)) < senders
      && (not t.picked.((t.c_left.(i) * k) + t.c_right.(i)))
      && (!best < 0
         || Float.compare (cand_weight t i) (cand_weight t !best) < 0)
    then best := i
  done;
  if !best >= 0 then begin
    let r = t.c_right.(!best) in
    t.picked.((t.c_left.(!best) * k) + r) <- true;
    t.fan_in.(r) <- t.fan_in.(r) + 1;
    redundant_rounds t ~senders
  end

let redundant t ~senders =
  let k = t.k in
  let senders = max 1 (min senders k) in
  greedy t;
  if senders > 1 then begin
    Array.fill t.picked 0 (k * k) false;
    for i = 0 to t.n_sel - 1 do
      t.picked.((t.sel_left.(i) * k) + t.sel_right.(i)) <- true
    done;
    Array.fill t.fan_in 0 k 1;
    (* Forced edges are never reused as extras: a colocated source must
       keep feeding only its own processor. *)
    redundant_rounds t ~senders;
    t.n_sel <- 0;
    for l = 0 to k - 1 do
      for r = 0 to k - 1 do
        if t.picked.((l * k) + r) then select t l r
      done
    done
  end

let max_weight t =
  let acc = ref neg_infinity in
  for i = 0 to t.n_sel - 1 do
    acc :=
      Float.max !acc t.weight.((t.sel_left.(i) * t.k) + t.sel_right.(i))
  done;
  !acc

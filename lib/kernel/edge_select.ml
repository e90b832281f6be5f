module Hk = Ftsched_ds.Hopcroft_karp

exception Infeasible of string

let infeasible fmt = Format.kasprintf (fun s -> raise (Infeasible s)) fmt

type t = {
  mutable k : int;
  mutable weight : float array;  (* k × k, row-major by left *)
  mutable cand : bool array;  (* k × k: is (left, right) a candidate? *)
  mutable n : int;  (* candidates, in the order added *)
  mutable c_left : int array;
  mutable c_right : int array;
  mutable c_forced : bool array;
  mutable n_forced : int;  (* the forced candidates, in the order added *)
  mutable forced : int array;
  mutable left_taken : bool array;  (* k *)
  mutable right_taken : bool array;  (* k *)
  mutable fan_in : int array;  (* k: the redundant rule's senders per right *)
  mutable picked : bool array;  (* k × k: the redundant rule's pairs *)
  mutable n_sel : int;  (* the selection, in selection order *)
  mutable sel_left : int array;
  mutable sel_right : int array;
}

let create () =
  {
    k = 0;
    weight = [||];
    cand = [||];
    n = 0;
    c_left = [||];
    c_right = [||];
    c_forced = [||];
    n_forced = 0;
    forced = [||];
    left_taken = [||];
    right_taken = [||];
    fan_in = [||];
    picked = [||];
    n_sel = 0;
    sel_left = [||];
    sel_right = [||];
  }

(* Size the set for [k] replicas a side, empty of candidates and
   selection; [cand] is left as it was. *)
let resize t ~k =
  if Array.length t.left_taken < k then begin
    let kk = k * k in
    t.weight <- Array.make kk 0.;
    t.cand <- Array.make kk false;
    t.c_left <- Array.make kk 0;
    t.c_right <- Array.make kk 0;
    t.c_forced <- Array.make kk false;
    t.forced <- Array.make kk 0;
    t.left_taken <- Array.make k false;
    t.right_taken <- Array.make k false;
    t.fan_in <- Array.make k 0;
    t.picked <- Array.make kk false;
    t.sel_left <- Array.make kk 0;
    t.sel_right <- Array.make kk 0
  end;
  t.k <- k;
  t.n <- 0;
  t.n_forced <- 0;
  t.n_sel <- 0

let reset t ~k =
  if k < 1 then invalid_arg "Edge_select.reset: need k >= 1";
  resize t ~k;
  Array.fill t.cand 0 (k * k) false

let weights t = t.weight

let[@inline] push_cand t ~left ~right ~forced =
  let i = t.n in
  t.c_left.(i) <- left;
  t.c_right.(i) <- right;
  t.c_forced.(i) <- forced;
  t.n <- i + 1;
  if forced then begin
    t.forced.(t.n_forced) <- i;
    t.n_forced <- t.n_forced + 1
  end

let add t ~left ~right ~forced =
  t.cand.((left * t.k) + right) <- true;
  push_cand t ~left ~right ~forced

(* The weight of left [l] through right [r] on processor [chosen.(r)]:
   the finish its input [l] alone would give. *)
let[@inline] edge_weight t ~l ~r ~f ~src ~vol ~delay_t ~chosen ~ready ~exec =
  let p = chosen.(r) in
  t.weight.((l * t.k) + r) <-
    Float.max (f +. (vol *. delay_t.(p).(src))) ready.(p) +. exec.(p)

let build t ~k ~finish ~procs ~first ~vols ~vol_at ~delay_t ~chosen
    ~replica_on ~ready ~exec ~fan_out =
  resize t ~k;
  let vol = vols.(vol_at) and cand = t.cand in
  for l = k - 1 downto 0 do
    let src = procs.(first + l) and f = finish.(first + l) in
    let colocated = replica_on.(src) in
    let row = l * k in
    if colocated < 0 || fan_out then begin
      for r = k - 1 downto 0 do
        cand.(row + r) <- true;
        if r <> colocated then begin
          edge_weight t ~l ~r ~f ~src ~vol ~delay_t ~chosen ~ready ~exec;
          push_cand t ~left:l ~right:r ~forced:false
        end
      done
    end
    else
      for r = 0 to k - 1 do
        cand.(row + r) <- r = colocated
      done;
    if colocated >= 0 then begin
      edge_weight t ~l ~r:colocated ~f ~src ~vol ~delay_t ~chosen ~ready ~exec;
      push_cand t ~left:l ~right:colocated ~forced:true
    end
  done

let selected t = t.n_sel

let selected_lefts t = t.sel_left
let selected_rights t = t.sel_right
let[@inline] cand_weight t i = t.weight.((t.c_left.(i) * t.k) + t.c_right.(i))

let[@inline] select t l r =
  t.sel_left.(t.n_sel) <- l;
  t.sel_right.(t.n_sel) <- r;
  t.n_sel <- t.n_sel + 1

let take t l r =
  t.left_taken.(l) <- true;
  t.right_taken.(r) <- true;
  select t l r

(* A scan in (weight, left, right) order keeps a candidate iff both its
   nodes are still free, and a candidate it skips never becomes free
   again: so the next kept one is always the least free candidate, and
   one pass over the free rows' cells, rows then columns ascending with
   a strict [<], finds it.  At most k passes, instead of a sort. *)
let greedy t =
  let k = t.k and weight = t.weight and cand = t.cand in
  let left_taken = t.left_taken and right_taken = t.right_taken in
  for i = 0 to k - 1 do
    left_taken.(i) <- false;
    right_taken.(i) <- false
  done;
  t.n_sel <- 0;
  (* Forced (internal) edges have absolute priority. *)
  for f = 0 to t.n_forced - 1 do
    let i = t.forced.(f) in
    let l = t.c_left.(i) and r = t.c_right.(i) in
    if left_taken.(l) || right_taken.(r) then
      infeasible "conflicting forced edges (left %d / right %d)" l r;
    take t l r
  done;
  let searching = ref true in
  while !searching && t.n_sel < k do
    let best = ref (-1) in
    for l = 0 to k - 1 do
      if not left_taken.(l) then begin
        let row = l * k in
        for r = 0 to k - 1 do
          let c = row + r in
          if
            cand.(c)
            && (not right_taken.(r))
            && (!best < 0 || Float.compare weight.(c) weight.(!best) < 0)
          then best := c
        done
      end
    done;
    if !best < 0 then searching := false
    else take t (!best / k) (!best mod k)
  done;
  for l = 0 to k - 1 do
    if not left_taken.(l) then
      infeasible "greedy selection could not saturate every source replica"
  done;
  for r = 0 to k - 1 do
    if not right_taken.(r) then
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

(* Extra senders for {!redundant}: as in {!greedy}, a candidate
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

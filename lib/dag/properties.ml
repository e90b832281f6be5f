let depth g =
  let n = Dag.n_tasks g in
  let d = Array.make n 0 in
  let topo = Dag.topological_order g in
  Array.iter
    (fun u ->
      Dag.iter_succs g u (fun _ v _ ->
          if d.(u) + 1 > d.(v) then d.(v) <- d.(u) + 1))
    topo;
  d

let height g =
  let n = Dag.n_tasks g in
  if n = 0 then 0 else 1 + Array.fold_left max 0 (depth g)

let level_sizes g =
  let d = depth g in
  let h = height g in
  let sizes = Array.make (max h 1) 0 in
  Array.iter (fun lvl -> sizes.(lvl) <- sizes.(lvl) + 1) d;
  if Dag.n_tasks g = 0 then [||] else sizes

let width_upper_bound g =
  (* Simulate the scheduling loop's free set: a task becomes free when its
     last predecessor is consumed; peak |free| bounds |α|. *)
  let n = Dag.n_tasks g in
  let remaining = Array.init n (fun i -> Dag.in_degree g i) in
  let free = ref 0 and peak = ref 0 in
  for i = 0 to n - 1 do
    if remaining.(i) = 0 then incr free
  done;
  peak := !free;
  let topo = Dag.topological_order g in
  Array.iter
    (fun u ->
      decr free;
      Dag.iter_succs g u (fun _ v _ ->
          remaining.(v) <- remaining.(v) - 1;
          if remaining.(v) = 0 then incr free);
      if !free > !peak then peak := !free)
    topo;
  !peak

(* Longest path via one pass over a topological order; [best.(u)] is the
   heaviest path ending at [u] (inclusive of u's node weight). *)
let longest_path_table g ~node_weight ~edge_weight =
  let n = Dag.n_tasks g in
  let best = Array.make n neg_infinity in
  let from = Array.make n (-1) in
  let topo = Dag.topological_order g in
  Array.iter
    (fun u ->
      if best.(u) = neg_infinity then best.(u) <- node_weight u;
      Dag.iter_succs g u (fun e v _ ->
          let cand = best.(u) +. edge_weight e +. node_weight v in
          if cand > best.(v) then begin
            best.(v) <- cand;
            from.(v) <- u
          end))
    topo;
  (best, from)

let longest_path g ~node_weight ~edge_weight =
  if Dag.n_tasks g = 0 then 0.
  else begin
    let best, _ = longest_path_table g ~node_weight ~edge_weight in
    Array.fold_left Float.max neg_infinity best
  end

let critical_path_tasks g ~node_weight ~edge_weight =
  if Dag.n_tasks g = 0 then []
  else begin
    let best, from = longest_path_table g ~node_weight ~edge_weight in
    let last = ref 0 in
    for i = 1 to Dag.n_tasks g - 1 do
      if best.(i) > best.(!last) then last := i
    done;
    let rec walk u acc = if u = -1 then acc else walk from.(u) (u :: acc) in
    walk !last []
  end

let is_connected_undirected g =
  let n = Dag.n_tasks g in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let stack = Stack.create () in
    Stack.push 0 stack;
    seen.(0) <- true;
    let visited = ref 1 in
    while not (Stack.is_empty stack) do
      let u = Stack.pop stack in
      let visit _ v _ =
        if not seen.(v) then begin
          seen.(v) <- true;
          incr visited;
          Stack.push v stack
        end
      in
      Dag.iter_succs g u visit;
      Dag.iter_preds g u visit
    done;
    !visited = n
  end

let transitive_edge_count g =
  let n = Dag.n_tasks g in
  let words = (n + 62) / 63 in
  (* reach.(u) is a bitset of tasks reachable from u (excluding u). *)
  let reach = Array.init n (fun _ -> Array.make words 0) in
  let set bs i = bs.(i / 63) <- bs.(i / 63) lor (1 lsl (i mod 63)) in
  let get bs i = bs.(i / 63) land (1 lsl (i mod 63)) <> 0 in
  let union dst src =
    for w = 0 to words - 1 do
      dst.(w) <- dst.(w) lor src.(w)
    done
  in
  let topo = Dag.topological_order g in
  for i = Array.length topo - 1 downto 0 do
    let u = topo.(i) in
    Dag.iter_succs g u (fun _ v _ ->
        set reach.(u) v;
        union reach.(u) reach.(v))
  done;
  let off = Dag.Csr.succ_offsets g and succ = Dag.Csr.succ_tasks g in
  Dag.fold_edges g ~init:0 ~f:(fun acc _e ~src ~dst ~volume:_ ->
      (* (src,dst) is transitive iff dst is reachable from some other
         successor of src. *)
      let rec redundant k =
        k < off.(src + 1)
        && ((succ.(k) <> dst && get reach.(succ.(k)) dst) || redundant (k + 1))
      in
      if redundant off.(src) then acc + 1 else acc)

module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance

type replica = {
  task : Dag.task;
  index : int;
  proc : Platform.proc;
  start : float;
  finish : float;
  pess_start : float;
  pess_finish : float;
}

type t = {
  instance : Instance.t;
  eps : int;
  replicas : replica array array;
  comm : Comm_plan.t;
  order : replica array;
  order_off : int array;
      (* processor [p]'s replicas, in planned order, are
         [order.(order_off.(p))] … [order.(order_off.(p + 1) - 1)] *)
}

(* The planned order on a processor: optimistic start, then task, then
   replica index descending.  Replicas of one task sit on distinct
   processors, so the index only decides between two replicas of one task
   on one processor, which a malformed plan can hold.  No two replicas
   share all three keys, so the order is total.

   Every replica in planned order, processor after processor: a
   counting pass gives each processor its range of [order], a second
   fills the ranges in task order, and each range is merge-sorted as a
   permutation over its keys copied into flat arrays (the starts
   unboxed). *)
let order_of ~m replicas =
  let off = Array.make (m + 1) 0 in
  Array.iter
    (Array.iter (fun r -> off.(r.proc + 1) <- off.(r.proc + 1) + 1))
    replicas;
  let widest = ref 0 in
  for p = 0 to m - 1 do
    widest := max !widest off.(p + 1);
    off.(p + 1) <- off.(p + 1) + off.(p)
  done;
  let order =
    if off.(m) = 0 then [||] else Array.make off.(m) replicas.(0).(0)
  in
  let at = Array.sub off 0 m in
  Array.iter
    (Array.iter (fun r ->
         order.(at.(r.proc)) <- r;
         at.(r.proc) <- at.(r.proc) + 1))
    replicas;
  let n = !widest in
  let start = Array.make n 0. and task = Array.make n 0 in
  let index = Array.make n 0 in
  let perm = Array.make n 0 and tmp = Array.make n 0 in
  let before i j =
    start.(i) < start.(j)
    || start.(i) = start.(j)
       && (task.(i) < task.(j)
          || (task.(i) = task.(j) && index.(i) > index.(j)))
  in
  (* sorts [perm.(lo .. hi - 1)] *)
  let rec sort lo hi =
    if hi - lo <= 8 then
      for i = lo + 1 to hi - 1 do
        let x = perm.(i) in
        let j = ref (i - 1) in
        while !j >= lo && before x perm.(!j) do
          perm.(!j + 1) <- perm.(!j);
          decr j
        done;
        perm.(!j + 1) <- x
      done
    else begin
      let mid = (lo + hi) / 2 in
      sort lo mid;
      sort mid hi;
      let i = ref lo and j = ref mid in
      for k = lo to hi - 1 do
        if !j >= hi || (!i < mid && not (before perm.(!j) perm.(!i))) then begin
          tmp.(k) <- perm.(!i);
          incr i
        end
        else begin
          tmp.(k) <- perm.(!j);
          incr j
        end
      done;
      Array.blit tmp lo perm lo (hi - lo)
    end
  in
  for p = 0 to m - 1 do
    let lo = off.(p) and len = off.(p + 1) - off.(p) in
    for i = 0 to len - 1 do
      let r = order.(lo + i) in
      start.(i) <- r.start;
      task.(i) <- r.task;
      index.(i) <- r.index;
      perm.(i) <- i
    done;
    sort 0 len;
    let range = Array.sub order lo len in
    for i = 0 to len - 1 do
      order.(lo + i) <- range.(perm.(i))
    done
  done;
  (order, off)

let create ~instance ~eps ~replicas ~comm =
  let v = Instance.n_tasks instance and m = Instance.n_procs instance in
  if eps < 0 || eps >= m then invalid_arg "Schedule.create: eps out of range";
  if Array.length replicas <> v then
    invalid_arg "Schedule.create: replica rows";
  Array.iteri
    (fun task row ->
      if Array.length row <> eps + 1 then
        invalid_arg "Schedule.create: wrong replica count";
      Array.iteri
        (fun idx r ->
          if r.task <> task || r.index <> idx then
            invalid_arg "Schedule.create: replica mislabelled";
          if r.proc < 0 || r.proc >= m then
            invalid_arg "Schedule.create: bad processor";
          if
            not
              (Float.is_finite r.start && Float.is_finite r.finish
              && Float.is_finite r.pess_start
              && Float.is_finite r.pess_finish)
          then invalid_arg "Schedule.create: replica time not finite";
          if r.finish < r.start || r.pess_finish < r.pess_start then
            invalid_arg "Schedule.create: negative duration")
        row)
    replicas;
  if not (Comm_plan.fits comm ~n_edges:(Dag.n_edges (Instance.dag instance)))
  then invalid_arg "Schedule.create: comm plan edge count";
  let order, order_off = order_of ~m replicas in
  { instance; eps; replicas; comm; order; order_off }

let instance t = t.instance
let eps t = t.eps
let n_replicas t = t.eps + 1
let comm t = t.comm

let replicas t task = t.replicas.(task)
let replica t task k = t.replicas.(task).(k)
let proc_of t task k = t.replicas.(task).(k).proc

let replica_on t task ~proc =
  Array.find_opt (fun r -> r.proc = proc) t.replicas.(task)

let assigned_procs t task = Array.map (fun r -> r.proc) t.replicas.(task)

let mapping_matrix t =
  let v = Instance.n_tasks t.instance and m = Instance.n_procs t.instance in
  let x = Array.make_matrix v m false in
  Array.iteri
    (fun task row -> Array.iter (fun r -> x.(task).(r.proc) <- true) row)
    t.replicas;
  x

let timeline t proc =
  let lo = t.order_off.(proc) in
  Array.sub t.order lo (t.order_off.(proc + 1) - lo)

let fold_exits t ~init ~f =
  Array.fold_left (fun acc e -> f acc t.replicas.(e)) init
    (Dag.exits (Instance.dag t.instance))

let latency_lower_bound t =
  fold_exits t ~init:0. ~f:(fun acc row ->
      let first_finish =
        Array.fold_left (fun m r -> Float.min m r.finish) infinity row
      in
      Float.max acc first_finish)

let latency_upper_bound t =
  fold_exits t ~init:0. ~f:(fun acc row ->
      let last_finish =
        Array.fold_left (fun m r -> Float.max m r.pess_finish) 0. row
      in
      Float.max acc last_finish)

(* Messages implied by the plan, with the intra-processor shortcut of the
   paper: a destination replica colocated with a source replica receives
   nothing over the network, and under all-to-all nobody else sends to it
   either. *)
let fold_messages t ~init ~f =
  let g = Instance.dag t.instance in
  let w = Comm_plan.widest t.comm ~eps:t.eps in
  let ps = Array.make w 0 and pd = Array.make w 0 in
  Dag.fold_edges g ~init ~f:(fun acc e ~src ~dst ~volume ->
      let srcs = t.replicas.(src) and dsts = t.replicas.(dst) in
      if Comm_plan.is_all_to_all t.comm then
        Array.fold_left
          (fun acc dr ->
            let colocated = Array.exists (fun sr -> sr.proc = dr.proc) srcs in
            if colocated then acc
            else Array.fold_left (fun acc sr -> f acc ~volume sr dr) acc srcs)
          acc dsts
      else begin
        let acc = ref acc in
        let n = Comm_plan.pairs t.comm ~eps:t.eps e ~srcs:ps ~dsts:pd in
        for i = 0 to n - 1 do
          let sr = srcs.(ps.(i)) and dr = dsts.(pd.(i)) in
          if sr.proc <> dr.proc then acc := f !acc ~volume sr dr
        done;
        !acc
      end)

let inter_processor_messages t =
  fold_messages t ~init:0 ~f:(fun acc ~volume:_ _ _ -> acc + 1)

let total_comm_volume t =
  fold_messages t ~init:0. ~f:(fun acc ~volume _ _ -> acc +. volume)

let busy_time t proc =
  let busy = ref 0. in
  for i = t.order_off.(proc) to t.order_off.(proc + 1) - 1 do
    busy := !busy +. (t.order.(i).finish -. t.order.(i).start)
  done;
  !busy

let pp_summary ppf t =
  Format.fprintf ppf
    "schedule{eps=%d; M*=%.4g; M=%.4g; msgs=%d}" t.eps
    (latency_lower_bound t) (latency_upper_bound t)
    (inter_processor_messages t)

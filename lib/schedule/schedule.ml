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
}

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
  (match comm with
  | Comm_plan.All_to_all -> ()
  | Comm_plan.Selected sel ->
      if Array.length sel <> Dag.n_edges (Instance.dag instance) then
        invalid_arg "Schedule.create: comm plan edge count");
  { instance; eps; replicas; comm }

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

let timeline_order a b = compare (a.start, a.task) (b.start, b.task)

let proc_timeline t proc =
  let acc = ref [] in
  Array.iter
    (fun row ->
      Array.iter (fun r -> if r.proc = proc then acc := r :: !acc) row)
    t.replicas;
  List.sort timeline_order !acc

(* One pass over the replica table instead of the m passes that calling
   {!proc_timeline} per processor costs — replicas of one task sit on
   distinct processors, so each bucket's (start, task) keys are unique
   and the per-bucket sort order is the same as [proc_timeline]'s. *)
let proc_timelines t =
  let m = Instance.n_procs t.instance in
  let buckets = Array.make m [] in
  Array.iter
    (fun row ->
      Array.iter (fun r -> buckets.(r.proc) <- r :: buckets.(r.proc)) row)
    t.replicas;
  Array.map (List.sort timeline_order) buckets

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
  Dag.fold_edges g ~init ~f:(fun acc e ~src ~dst ~volume ->
      let srcs = t.replicas.(src) and dsts = t.replicas.(dst) in
      match t.comm with
      | Comm_plan.All_to_all ->
          Array.fold_left
            (fun acc dr ->
              let colocated =
                Array.exists (fun sr -> sr.proc = dr.proc) srcs
              in
              if colocated then acc
              else
                Array.fold_left (fun acc sr -> f acc ~volume sr dr) acc srcs)
            acc dsts
      | Comm_plan.Selected sel ->
          List.fold_left
            (fun acc { Comm_plan.src_replica; dst_replica } ->
              let sr = srcs.(src_replica) and dr = dsts.(dst_replica) in
              if sr.proc = dr.proc then acc else f acc ~volume sr dr)
            acc sel.(e))

let inter_processor_messages t =
  fold_messages t ~init:0 ~f:(fun acc ~volume:_ _ _ -> acc + 1)

let total_comm_volume t =
  fold_messages t ~init:0. ~f:(fun acc ~volume _ _ -> acc +. volume)

let busy_time t proc =
  List.fold_left (fun acc r -> acc +. (r.finish -. r.start)) 0.
    (proc_timeline t proc)

let pp_summary ppf t =
  Format.fprintf ppf
    "schedule{eps=%d; M*=%.4g; M=%.4g; msgs=%d}" t.eps
    (latency_lower_bound t) (latency_upper_bound t)
    (inter_processor_messages t)

module Dag = Ftsched_dag.Dag
module Properties = Ftsched_dag.Properties
module Instance = Ftsched_model.Instance

let critical_path_lower_bound inst =
  Properties.longest_path (Instance.dag inst)
    ~node_weight:(fun t -> Instance.min_exec inst t)
    ~edge_weight:(fun _ -> 0.)

let slr s =
  Schedule.latency_lower_bound s
  /. critical_path_lower_bound (Schedule.instance s)

let guaranteed_slr s =
  Schedule.latency_upper_bound s
  /. critical_path_lower_bound (Schedule.instance s)

let sequential_time inst =
  let total = ref 0. in
  for t = 0 to Instance.n_tasks inst - 1 do
    total := !total +. Instance.min_exec inst t
  done;
  !total

let speedup s =
  sequential_time (Schedule.instance s) /. Schedule.latency_lower_bound s

let busy_times s =
  let m = Instance.n_procs (Schedule.instance s) in
  Array.init m (Schedule.busy_time s)

let avg_utilization s =
  let busy = busy_times s in
  let horizon = Schedule.latency_lower_bound s in
  if horizon <= 0. then 0.
  else
    Array.fold_left ( +. ) 0. busy
    /. (float_of_int (Array.length busy) *. horizon)

let load_imbalance s =
  let busy = Array.to_list (busy_times s) |> List.filter (fun b -> b > 0.) in
  match busy with
  | [] -> 1.
  | _ ->
      let mx = List.fold_left Float.max 0. busy in
      let mean =
        List.fold_left ( +. ) 0. busy /. float_of_int (List.length busy)
      in
      mx /. mean

let work_inflation s =
  let total = Array.fold_left ( +. ) 0. (busy_times s) in
  let ideal = sequential_time (Schedule.instance s) in
  total /. ideal

let inter_processor_links s =
  let inst = Schedule.instance s in
  let g = Instance.dag inst in
  let eps = Schedule.eps s in
  let plan = Schedule.comm s in
  let vols = Hashtbl.create 64 in
  let ps = Array.make (Comm_plan.widest plan ~eps) 0 in
  let pd = Array.make (Array.length ps) 0 in
  Dag.iter_edges g (fun e ~src ~dst ~volume ->
      for i = 0 to Comm_plan.pairs plan ~eps e ~srcs:ps ~dsts:pd - 1 do
        let sp = Schedule.proc_of s src ps.(i) in
        let dp = Schedule.proc_of s dst pd.(i) in
        if sp <> dp then
          let prev = Hashtbl.find_opt vols (sp, dp) in
          Hashtbl.replace vols (sp, dp) (Option.value ~default:0. prev +. volume)
      done);
  Hashtbl.fold (fun link vol acc -> (link, vol) :: acc) vols []
  |> List.sort (fun (l1, v1) (l2, v2) ->
         match compare v2 v1 with 0 -> compare l1 l2 | c -> c)

type step_stats = {
  steps : int;
  candidate_evals : int;
  evals_per_task : float;
  gap_searches : int;
  mean_gap_depth : float;
  evaluate_time : float;
  choose_time : float;
  commit_time : float;
}

let pp_step_stats ppf s =
  Format.fprintf ppf
    "steps=%d evals=%d evals/task=%.2f gap-searches=%d mean-gap-depth=%.2f \
     phases[eval=%.3fs choose=%.3fs commit=%.3fs]"
    s.steps s.candidate_evals s.evals_per_task s.gap_searches s.mean_gap_depth
    s.evaluate_time s.choose_time s.commit_time

type degraded = {
  completed_tasks : int;
  total_tasks : int;
  completed_sinks : int list;
  total_sinks : int;
  partial_latency : float option;
  complete : bool;
}

let degraded_of_run g ~first_finish =
  let v = Dag.n_tasks g in
  let completed_tasks = ref 0 in
  for t = 0 to v - 1 do
    if first_finish t < infinity then incr completed_tasks
  done;
  let sinks = Array.to_list (Dag.exits g) in
  let completed_sinks =
    List.filter (fun t -> first_finish t < infinity) sinks
  in
  let partial_latency =
    match completed_sinks with
    | [] -> None
    | _ ->
        Some
          (List.fold_left
             (fun acc t -> Float.max acc (first_finish t))
             0. completed_sinks)
  in
  {
    completed_tasks = !completed_tasks;
    total_tasks = v;
    completed_sinks;
    total_sinks = List.length sinks;
    partial_latency;
    complete = !completed_tasks = v;
  }

let pp_degraded ppf d =
  Format.fprintf ppf "tasks %d/%d, sinks %d/%d%a" d.completed_tasks
    d.total_tasks
    (List.length d.completed_sinks)
    d.total_sinks
    (fun ppf -> function
      | Some l -> Format.fprintf ppf ", partial latency %.3f" l
      | None -> ())
    d.partial_latency

let pp ppf s =
  Format.fprintf ppf
    "slr=%.3f gslr=%.3f speedup=%.3f util=%.3f imbalance=%.3f inflation=%.3f"
    (slr s) (guaranteed_slr s) (speedup s) (avg_utilization s)
    (load_imbalance s) (work_inflation s)

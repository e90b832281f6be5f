module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Rng = Ftsched_util.Rng

type t = {
  dag : Dag.t;
  platform : Platform.t;
  exec : float array array;  (* v × m *)
  avg_exec : float array;    (* per task *)
}

let compute_avg exec m =
  Array.map (fun row -> Array.fold_left ( +. ) 0. row /. float_of_int m) exec

let create ~dag ~platform ~exec =
  let v = Dag.n_tasks dag and m = Platform.n_procs platform in
  if Array.length exec <> v then invalid_arg "Instance.create: exec rows";
  Array.iter
    (fun row ->
      if Array.length row <> m then invalid_arg "Instance.create: exec cols";
      Array.iter
        (fun c ->
          if c <= 0. || not (Float.is_finite c) then
            invalid_arg "Instance.create: exec cost must be positive")
        row)
    exec;
  let exec = Array.map Array.copy exec in
  { dag; platform; exec; avg_exec = compute_avg exec m }

let dag t = t.dag
let platform t = t.platform
let n_tasks t = Dag.n_tasks t.dag
let n_procs t = Platform.n_procs t.platform

let exec t task p = t.exec.(task).(p)
let exec_row t task = t.exec.(task)
let avg_exec t task = t.avg_exec.(task)

let min_exec t task = Array.fold_left Float.min infinity t.exec.(task)
let max_exec t task = Array.fold_left Float.max 0. t.exec.(task)

let mean_task_exec t =
  if n_tasks t = 0 then 0.
  else Array.fold_left ( +. ) 0. t.avg_exec /. float_of_int (n_tasks t)

let comm_time t ~volume ~src ~dst = volume *. Platform.delay t.platform src dst

let avg_comm_time t ~volume = volume *. Platform.avg_delay t.platform

let edge_avg_comm t e = avg_comm_time t ~volume:(Dag.edge_volume t.dag e)

let scale_exec t ~factor =
  if factor <= 0. || not (Float.is_finite factor) then
    invalid_arg "Instance.scale_exec";
  let exec = Array.map (Array.map (fun c -> c *. factor)) t.exec in
  { t with exec; avg_exec = compute_avg exec (n_procs t) }

let pp ppf t =
  Format.fprintf ppf "instance{%a; %a; mean_exec=%.3g}" Dag.pp t.dag
    Platform.pp t.platform (mean_task_exec t)

let of_task_costs rng ~dag ~costs ~platform ?(inconsistency = 0.25) () =
  if inconsistency < 0. || inconsistency >= 1. then
    invalid_arg "Instance.of_task_costs: inconsistency must be in [0,1)";
  let v = Dag.n_tasks dag and m = Platform.n_procs platform in
  if Array.length costs <> v then invalid_arg "Instance.of_task_costs: costs";
  let exec =
    Array.init v (fun t ->
        let base = Float.max costs.(t) 1e-9 in
        Array.init m (fun _ ->
            if inconsistency = 0. then base
            else
              base *. Rng.float_in rng (1. -. inconsistency) (1. +. inconsistency)))
  in
  create ~dag ~platform ~exec

let random_exec rng ~dag ~platform ?(task_weight = (50., 150.))
    ?(proc_speed = (0.5, 2.)) ?(inconsistency = 0.5) () =
  if inconsistency < 0. || inconsistency >= 1. then
    invalid_arg "Instance.random_exec: inconsistency must be in [0,1)";
  let v = Dag.n_tasks dag and m = Platform.n_procs platform in
  let wlo, whi = task_weight and slo, shi = proc_speed in
  let w = Array.init v (fun _ -> Rng.float_in rng wlo whi) in
  let s = Array.init m (fun _ -> Rng.float_in rng slo shi) in
  let exec =
    Array.init v (fun i ->
        Array.init m (fun j ->
            let noise =
              Rng.float_in rng (1. -. inconsistency) (1. +. inconsistency)
            in
            w.(i) *. s.(j) *. noise))
  in
  create ~dag ~platform ~exec

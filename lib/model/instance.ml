module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Rng = Ftsched_util.Rng

type t = {
  dag : Dag.t;
  platform : Platform.t;
  exec : float array array;  (* v × m *)
  avg_exec : float array;    (* per task *)
}

(* Loops rather than [Array.iter] / [Array.fold_left]: those box every
   cost they pass to their closure.  Each row is summed left to right,
   as [Array.fold_left ( +. ) 0.] sums it. *)
let compute_avg exec m =
  let avg = Array.make (Array.length exec) 0. in
  for t = 0 to Array.length exec - 1 do
    let row = exec.(t) in
    let sum = ref 0. in
    for p = 0 to Array.length row - 1 do
      sum := !sum +. row.(p)
    done;
    avg.(t) <- !sum /. float_of_int m
  done;
  avg

(* [exec] checked and kept as is: the caller hands over rows no one
   else holds. *)
let of_rows ~dag ~platform ~exec =
  let v = Dag.n_tasks dag and m = Platform.n_procs platform in
  if Array.length exec <> v then invalid_arg "Instance.create: exec rows";
  for t = 0 to v - 1 do
    let row = exec.(t) in
    if Array.length row <> m then invalid_arg "Instance.create: exec cols";
    for p = 0 to m - 1 do
      let c = row.(p) in
      if c <= 0. || not (Float.is_finite c) then
        invalid_arg "Instance.create: exec cost must be positive"
    done
  done;
  { dag; platform; exec; avg_exec = compute_avg exec m }

let create ~dag ~platform ~exec =
  of_rows ~dag ~platform ~exec:(Array.map Array.copy exec)

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
  let w = Array.make v 0. and s = Array.make m 0. in
  Rng.fill_float_in rng w wlo whi;
  Rng.fill_float_in rng s slo shi;
  let lo = 1. -. inconsistency and hi = 1. +. inconsistency in
  (* each row holds its noise draws, then the costs, multiplied as
     [w_i *. s_j *. noise] *)
  let exec =
    Array.init v (fun i ->
        let row = Array.make m 0. in
        Rng.fill_float_in rng row lo hi;
        for j = 0 to m - 1 do
          row.(j) <- w.(i) *. s.(j) *. row.(j)
        done;
        row)
  in
  of_rows ~dag ~platform ~exec

module Rng = Ftsched_util.Rng
module Gen = Ftsched_dag.Generators
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Granularity = Ftsched_model.Granularity
module Dag = Ftsched_dag.Dag
module Par = Ftsched_par.Par

type spec = {
  n_procs : int;
  tasks_lo : int;
  tasks_hi : int;
  delay_lo : float;
  delay_hi : float;
  volume_lo : float;
  volume_hi : float;
  graphs_per_point : int;
}

let paper =
  {
    n_procs = 20;
    tasks_lo = 100;
    tasks_hi = 150;
    delay_lo = 0.5;
    delay_hi = 1.0;
    volume_lo = 50.;
    volume_hi = 150.;
    graphs_per_point = 60;
  }

let quick = { paper with graphs_per_point = 8 }

let granularities = List.init 10 (fun i -> 0.2 *. float_of_int (i + 1))

let with_procs spec n = { spec with n_procs = n }
let with_graphs_per_point spec n = { spec with graphs_per_point = n }

let instance spec ~master_seed ~granularity ~index =
  (* Derive an independent stream per (seed, granularity, index) so points
     are regenerable in isolation and in any order. *)
  let salt =
    master_seed
    + (7919 * index)
    + (104729 * int_of_float (Float.round (granularity *. 1000.)))
  in
  let rng = Rng.create ~seed:salt in
  let n_tasks = Rng.int_in rng spec.tasks_lo spec.tasks_hi in
  let dag =
    Gen.layered rng ~n_tasks
      ~volume:(Gen.Uniform_volume (spec.volume_lo, spec.volume_hi))
      ()
  in
  let platform =
    Platform.random rng ~m:spec.n_procs ~delay_lo:spec.delay_lo
      ~delay_hi:spec.delay_hi ()
  in
  let inst = Instance.random_exec rng ~dag ~platform () in
  Granularity.scale_to inst ~target:granularity

let sized ~seed ~n_tasks ~m =
  let rng = Rng.create ~seed in
  let dag = Gen.layered rng ~n_tasks () in
  let platform = Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 () in
  Instance.random_exec rng ~dag ~platform ()

type graph = { instance : Instance.t; seed : int; normalizer : float }

let mean_edge_comm inst =
  let e = Dag.n_edges (Instance.dag inst) in
  if e = 0 then 1.
  else begin
    let total = ref 0. in
    for i = 0 to e - 1 do
      total := !total +. Instance.edge_avg_comm inst i
    done;
    !total /. float_of_int e
  end

let graphs spec ~master_seed ~granularity f =
  Par.parallel_init spec.graphs_per_point (fun index ->
      let instance = instance spec ~master_seed ~granularity ~index in
      f
        {
          instance;
          seed = master_seed + (31 * index);
          normalizer = mean_edge_comm instance;
        })

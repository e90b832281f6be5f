module Rng = Ftsched_util.Rng
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Ftbar = Ftsched_baseline.Ftbar
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Par = Ftsched_par.Par

type algo = Ftsa | Mc_ftsa | Ftbar
type per_algo = { ftsa : float; mc_ftsa : float; ftbar : float }

type graph_result = {
  normalizer : float;
  mc_strict_defeated : float;
  lower_bounds : per_algo;
  upper_bounds : per_algo;
  fault_free_ftsa : float;
  fault_free_ftbar : float;
  crash_latencies : (int * per_algo) list;
}

type metric =
  | Lower of algo
  | Upper of algo
  | Fault_free_ftsa
  | Fault_free_ftbar
  | Crash of algo * int

let of_algo a l =
  match a with Ftsa -> l.ftsa | Mc_ftsa -> l.mc_ftsa | Ftbar -> l.ftbar

let value r = function
  | Lower a -> of_algo a r.lower_bounds
  | Upper a -> of_algo a r.upper_bounds
  | Fault_free_ftsa -> r.fault_free_ftsa
  | Fault_free_ftbar -> r.fault_free_ftbar
  | Crash (a, count) -> (
      match List.assoc_opt count r.crash_latencies with
      | Some l -> of_algo a l
      | None ->
          invalid_arg
            (Printf.sprintf "Runner.value: %d crashes were not replayed" count))

(* Crash-scenario RNG, derived per (count, sample) rather than shared
   across the crash-count sweep: seed + 0x5eed salts the base stream as
   before, 7919*count and 101*sample split it per multiplicity and draw,
   so scenarios stay identical if crash_counts is reordered or the
   sampling is parallelized. *)
let crash_scenario_rng ~seed ~count ~sample =
  Rng.create ~seed:(seed + 0x5eed + (7919 * count) + (101 * sample))

let run_graph (g : Workload.graph) ~eps ~crash_counts ?(crash_samples = 3) ()
    =
  let inst = g.instance and seed = g.seed in
  let m = Instance.n_procs inst in
  let s_ftsa = Ftsa.schedule ~seed inst ~eps in
  let s_mc = Mc_ftsa.schedule ~seed inst ~eps in
  let s_ftbar = Ftbar.schedule ~seed inst ~npf:eps in
  let s_ff_ftsa = Ftsa.schedule ~seed inst ~eps:0 in
  let s_ff_ftbar = Ftbar.schedule ~seed inst ~npf:0 in
  let per_algo bound =
    { ftsa = bound s_ftsa; mc_ftsa = bound s_mc; ftbar = bound s_ftbar }
  in
  let strict_defeats = ref 0 and strict_total = ref 0 in
  let crash_latencies =
    List.map
      (fun count ->
        let scenarios =
          List.init crash_samples (fun sample ->
              let rng = crash_scenario_rng ~seed ~count ~sample in
              Scenario.random rng ~m ~count)
        in
        let mean run_one =
          let total =
            List.fold_left (fun acc sc -> acc +. run_one sc) 0. scenarios
          in
          total /. float_of_int crash_samples
        in
        let ftsa =
          mean (fun sc -> Crash_exec.latency_exn ~policy:Reroute s_ftsa sc)
        in
        let mc_ftsa =
          mean (fun sc ->
              if count = eps then begin
                incr strict_total;
                if not (Crash_exec.survives ~policy:Strict s_mc sc) then
                  incr strict_defeats
              end;
              Crash_exec.latency_exn ~policy:Reroute s_mc sc)
        in
        let ftbar =
          mean (fun sc -> Crash_exec.latency_exn ~policy:Reroute s_ftbar sc)
        in
        (count, { ftsa; mc_ftsa; ftbar }))
      crash_counts
  in
  {
    normalizer = g.normalizer;
    mc_strict_defeated =
      (if !strict_total = 0 then 0.
       else float_of_int !strict_defeats /. float_of_int !strict_total);
    lower_bounds = per_algo Schedule.latency_lower_bound;
    upper_bounds = per_algo Schedule.latency_upper_bound;
    fault_free_ftsa = Schedule.latency_lower_bound s_ff_ftsa;
    fault_free_ftbar = Schedule.latency_lower_bound s_ff_ftbar;
    crash_latencies;
  }

let run_point spec ~master_seed ~granularity ~eps ~crash_counts ?crash_samples
    () =
  Workload.graphs spec ~master_seed ~granularity (fun g ->
      run_graph g ~eps ~crash_counts ?crash_samples ())

let sweep spec ~master_seed ~eps ~crash_counts ?crash_samples () =
  Par.parallel_map
    (fun granularity ->
      ( granularity,
        run_point spec ~master_seed ~granularity ~eps ~crash_counts
          ?crash_samples () ))
    Workload.granularities

let mean f results =
  List.fold_left (fun acc r -> acc +. f r) 0. results
  /. float_of_int (List.length results)

let mean_of results metric =
  mean (fun r -> value r metric /. r.normalizer) results

let cpu_per_run f =
  (* quiesce the GC so the sample doesn't pay major-heap slices for
     garbage earlier work left behind *)
  Gc.full_major ();
  let t0 = Sys.time () in
  let rec go runs =
    ignore (Sys.opaque_identity (f ()));
    let dt = Sys.time () -. t0 in
    if dt >= 0.01 then dt /. float_of_int runs else go (runs + 1)
  in
  go 1

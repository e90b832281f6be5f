(* paper-campaign: the shape of the paper's own experiments (Section 6).

   Many small instances (v stratified over [100, 150], m = 20), granularity cycling
   0.2 .. 2.0 and epsilon cycling 1 / 2 / 5.  Per instance: FTSA, MC-FTSA
   (greedy), the fault-free reference schedule, both plans validated, the
   FTSA plan serialized and parsed back, four random exactly-epsilon
   crash replays of each plan under the reroute policy, and one online
   recovery run with epsilon + 1 timed crashes.  Per-call set-up
   dominates, so this is the workload that shows Crash_exec, Recovery and
   the Domain pool.  The batch runs repeatedly at jobs = 1, then at
   jobs = 2, and every pass must produce the same result digest. *)

module Workload = Ftsched_exp.Workload
module Instance = Ftsched_model.Instance
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Schedule = Ftsched_schedule.Schedule
module Serialize = Ftsched_schedule.Serialize
module Crash_exec = Ftsched_sim.Crash_exec
module Scenario = Ftsched_sim.Scenario
module Recovery = Ftsched_recovery.Recovery
module Metrics = Ftsched_schedule.Metrics
module Rng = Ftsched_util.Rng
module Par = Ftsched_par.Par

let name = "paper-campaign"
let epsilons = [| 1; 2; 5 |]
let granularities = Array.of_list Workload.granularities
let crash_runs = 4

type item = { index : int; eps : int; inst : Instance.t }

(* Task counts are stratified over the paper's [100, 150]: instance
   [index] of a batch of [n] has the same size for every seed, so seeds
   differ in graph shape and costs, not in how much work a batch holds. *)
let tasks ~n index =
  let span = Workload.paper.Workload.tasks_hi - Workload.paper.Workload.tasks_lo in
  Workload.paper.Workload.tasks_lo + (index * 47 mod n * span / max 1 (n - 1))

let inputs ~seed ~n =
  Array.init n (fun index ->
      let granularity = granularities.(index mod Array.length granularities) in
      let v = tasks ~n index in
      let spec = { Workload.paper with Workload.tasks_lo = v; tasks_hi = v } in
      let inst =
        Trace.span ~req:index ~layer:"dag" ~name:"generate" (fun () ->
            Workload.instance spec ~master_seed:seed ~granularity ~index)
      in
      { index; eps = epsilons.(index mod Array.length epsilons); inst })

type outcome = {
  plan_s : float;
  mc_s : float;
  io_s : float;
  replay_s : float;
  total_s : float;
  summary : string;  (** [%h] results, for the digest *)
  errors : string list ref;
  ftsa_tasks : int;
  doc_bytes : int;
  injections : int;
  kills : int;
}

(* One instance through the whole path; a pure function of [item] and
   [seed], so any worker count computes the same outcome. *)
let run_one ~seed it =
  let req = it.index in
  let span layer name f = Trace.span ~req ~layer ~name f in
  let errors = Harness.errors () in
  let err fmt = Harness.err errors ("instance %d: " ^^ fmt) req in
  let validated what s =
    Harness.check_plan ~req errors ~what:(Printf.sprintf "instance %d: %s" req what) s
  in
  let v = Instance.n_tasks it.inst and m = Instance.n_procs it.inst in
  let now = Trace.cpu_now in
  let t0 = now () in
  let s =
    span "kernel" "ftsa" (fun () ->
        Ftsa.schedule ~seed:(seed + req) it.inst ~eps:it.eps)
  in
  validated "ftsa" s;
  let t1 = now () in
  let mc =
    span "kernel" "mc_ftsa" (fun () ->
        Mc_ftsa.schedule ~seed:(seed + req) it.inst ~eps:it.eps)
  in
  validated "mc-ftsa" mc;
  let t2 = now () in
  let ff =
    span "kernel" "ftsa" (fun () -> Ftsa.fault_free ~seed:(seed + req) it.inst)
  in
  let t3 = now () in
  let doc = span "schedule" "serialize" (fun () -> Serialize.schedule_to_string s) in
  let back = span "schedule" "parse" (fun () -> Serialize.schedule_of_string doc) in
  let doc' =
    span "schedule" "serialize" (fun () -> Serialize.schedule_to_string back)
  in
  if not (String.equal doc doc') then
    err "serialize -> parse -> serialize differs";
  let t4 = now () in
  let rng = Rng.create ~seed:(seed + (7919 * req) + 0x5eed) in
  let crash_latencies =
    List.concat_map
      (fun (what, plan) ->
        List.init crash_runs (fun _ ->
            let scenario = Scenario.random rng ~m ~count:it.eps in
            match
              span "sim" "crash_exec" (fun () ->
                  Crash_exec.run ~policy:Crash_exec.Reroute plan scenario)
            with
            | { Crash_exec.latency = Some l; _ } -> l
            | { Crash_exec.latency = None; _ } ->
                err "%s plan defeated by %d crashes under reroute" what it.eps;
                nan))
      [ ("ftsa", s); ("mc-ftsa", mc) ]
  in
  let mstar = Schedule.latency_lower_bound s in
  let timed =
    Scenario.random_timed rng ~m ~count:(it.eps + 1) ~horizon:mstar
  in
  let r =
    span "recovery" "run" (fun () ->
        Recovery.run_timed ~delta:(0.02 *. mstar) s timed)
  in
  if not r.Recovery.degraded.Metrics.complete then
    err "recovery from %d timed crashes did not complete" (it.eps + 1);
  let t5 = now () in
  let summary =
    String.concat " "
      (List.map (Printf.sprintf "%h")
         ([
            mstar; Schedule.latency_upper_bound s;
            Schedule.latency_lower_bound mc; Schedule.latency_lower_bound ff;
            Option.value r.Recovery.degraded.Metrics.partial_latency
              ~default:infinity;
          ]
         @ crash_latencies)
      @ [ string_of_int r.Recovery.injections; string_of_int r.Recovery.kills ])
  in
  {
    plan_s = t1 -. t0;
    mc_s = t2 -. t1;
    io_s = t4 -. t3;
    replay_s = t5 -. t4;
    total_s = t5 -. t0;
    summary;
    errors;
    ftsa_tasks = 2 * v;
    doc_bytes = String.length doc + String.length doc';
    injections = r.Recovery.injections;
    kills = r.Recovery.kills;
  }

(* [run] over the batch in [parts] slices of about a second each, timed
   by [timed] ([Pace.timed] or [Pace.timed_all]): the outcomes and the
   batch's seconds, both at the reference speed. *)
let paced_batch ~parts timed items run =
  let slices, seconds = Pace.sliced ~parts timed items run in
  let scaled k o =
    {
      o with
      plan_s = k *. o.plan_s;
      mc_s = k *. o.mc_s;
      io_s = k *. o.io_s;
      replay_s = k *. o.replay_s;
      total_s = k *. o.total_s;
    }
  in
  (Array.concat (List.map (fun (outs, k) -> Array.map (scaled k) outs) slices), seconds)

type rep = {
  outs : outcome array;
  setup_s : float;  (** generating the batch's instances *)
  batch_s : float;  (** the batch at jobs = 1, CPU seconds *)
  traced : bool;
  gc : Harness.gc_mark * Harness.gc_mark;
}

(* The tail percentile of instance times: the highest round one that a
   batch of 120 instances supports. *)
let tail_target = 0.9

let run (cfg : Harness.config) = Pace.with_helper ~quick:cfg.quick @@ fun pace ->
  let n = if cfg.quick then 3 else 120 in
  let seed = cfg.seed in
  let checks = Harness.checks () in
  let reference = ref None in
  let agree what i outs =
    let d = Harness.md5 (Array.to_list (Array.map (fun o -> o.summary) outs)) in
    match !reference with
    | None -> reference := Some d
    | Some r when r <> d ->
        Harness.problem checks "%s pass %d: digest %s differs from %s" what i d r
    | Some _ -> ()
  in
  let started = Trace.now () in
  let peak_rss_mb = ref nan in
  (* The jobs = 1 block.  Each repetition first regenerates the batch (the
     set-up, timed), then runs it; traced runs alternate traced and
     untraced repetitions, so the tracing overhead is measured in the same
     run. *)
  let j1 i =
    let traced = cfg.trace && i mod 2 = 1 in
    Trace.enabled := traced;
    let items, setup_s = Pace.seconds pace (fun () -> inputs ~seed ~n) in
    let g0 = Harness.gc_mark () in
    let outs, batch_s = paced_batch ~parts:4 (Pace.timed pace) items (Array.map (run_one ~seed)) in
    let g1 = Harness.gc_mark () in
    Trace.enabled := false;
    (* after the first batch: later batches add only how far the
       collector lags behind, which varies with how many fit in the run *)
    if i = 0 then peak_rss_mb := Report.peak_rss_mb ();
    Array.iter (fun o -> Harness.count checks o.errors) outs;
    agree "jobs=1" i outs;
    { outs; setup_s; batch_s; traced; gc = (g0, g1) }
  in
  let reps =
    Harness.repeat
      ~seconds:((if cfg.trace then 0.75 else 0.9) *. cfg.seconds)
      ~min_reps:(if cfg.quick then 3 else 5)
      j1
  in
  (* The jobs = 2 block comes last: the pool's worker domain is spawned
     here, and an idle domain would slow every jobs = 1 pass by a few
     percent (it must join each stop-the-world minor collection).  One
     batch checks the digest; a traced run times more for par.*, whose
     speed-up is the jobs = 1 batch's CPU time over the jobs = 2 batch's
     wall-clock time. *)
  let items = inputs ~seed ~n in
  let j2 i =
    let outs, wall =
      paced_batch ~parts:2 (Pace.timed_all pace) items (fun part ->
          Array.of_list
            (Par.parallel_init ~jobs:2 (Array.length part) (fun k -> run_one ~seed part.(k))))
    in
    Array.iter (fun o -> Harness.count checks o.errors) outs;
    agree "jobs=2" i outs;
    wall
  in
  let j2_walls =
    if cfg.trace then
      Harness.repeat ~seconds:(cfg.seconds -. (Trace.now () -. started)) ~min_reps:3 j2
    else [ j2 0 ]
  in
  let plain = List.filter (fun r -> not r.traced) reps in
  let per_s seconds = float_of_int n /. seconds in
  (* a stage's cost in a repetition is its mean over the batch *)
  let stage_ms f = 1e3 *. Harness.median_over (fun r -> Harness.mean_of f r.outs) plain in
  let e2e () =
    (* an instance's typical time: its median over the jobs = 1 batches *)
    let typical =
      Array.init n (fun k -> 1e3 *. Harness.median_over (fun r -> r.outs.(k).total_s) plain)
    in
    [
      Report.metric "setup_s" "s" (Harness.median_over (fun r -> r.setup_s) reps);
      Report.metric "peak_rss_mb" "MB" !peak_rss_mb;
      Report.metric "ops_per_s" "1/s" (Harness.median_over (fun r -> per_s r.batch_s) plain);
      Report.metric "op_p50_ms" "ms" (Ftsched_util.Stats.median typical);
      Report.metric "op_tail_ms" "ms" (Stats.tail ~target:tail_target typical);
      Report.metric "plan_ms" "ms" (stage_ms (fun o -> o.plan_s));
      Report.metric "mc_plan_ms" "ms" (stage_ms (fun o -> o.mc_s));
      Report.metric "io_ms" "ms" (stage_ms (fun o -> o.io_s));
      Report.metric "replay_ms" "ms" (stage_ms (fun o -> o.replay_s));
    ]
  in
  let layers () =
    let traced = List.filter (fun r -> r.traced) reps in
    let outs = List.concat_map (fun r -> Array.to_list r.outs) traced in
    let sum f = float_of_int (List.fold_left (fun a o -> a + f o) 0 outs) in
    let calls = float_of_int (List.length outs) in
    (* the first batch warms the heap and the caches, and a traced run
       has few batches, so its comparisons leave it out *)
    let warm = List.filter (fun r -> not r.traced) (List.tl reps) in
    let batch rs = Harness.median_over (fun r -> r.batch_s) rs in
    let speedup = batch warm /. Harness.median_over Fun.id j2_walls in
    let g0, g1 = (List.hd plain).gc in
    Layers.metrics ~spans:(Trace.spans ())
      ~extras:
        ([
           ("kernel.ftsa.tasks", sum (fun o -> o.ftsa_tasks));
           ("kernel.mc_ftsa.tasks", sum (fun o -> o.ftsa_tasks / 2));
           ("schedule.serialize.bytes", sum (fun o -> o.doc_bytes));
           ("sim.crash_exec.calls", float_of_int (2 * crash_runs));
           ("recovery.run.injections", sum (fun o -> o.injections) /. calls);
           ("recovery.run.kills", sum (fun o -> o.kills) /. calls);
           ("par.speedup_j2", speedup);
           ("par.efficiency_j2", speedup /. 2.);
           ("trace.overhead_pct", 100. *. ((batch traced /. batch warm) -. 1.));
         ]
        @ Harness.gc_extras ~ops:n g0 g1)
  in
  {
    Report.workload = name;
    seed;
    reps = List.length reps;
    attempted = n * (List.length reps + List.length j2_walls);
    failed = checks.Harness.failed;
    problems = List.rev checks.Harness.problems;
    digest = Option.value !reference ~default:"none";
    metrics = (if cfg.trace then layers () else e2e ());
  }

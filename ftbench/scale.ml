(* scale-layered and scale-pegasus: one large instance through the whole
   path, repeated on identical inputs.

   scale-layered is a dense literature graph: DAG build is about half of
   the time to a validated FTSA plan and the event simulator most of the
   replay.  scale-pegasus is a sparse Montage-style workflow with three
   times the tasks and a twentieth of the edges per task: Serialize and
   the kernel dominate and DAG build is cheap, so it is the control for
   DAG-build changes.  README.md records the measured shares.

   One operation builds the instance (DAG, platform, cost matrix, static
   bottom levels; the build alone is the set-up), plans with FTSA and
   MC-FTSA (each validated), round-trips the FTSA plan through Serialize,
   replays it through the event simulator fault-free and with one crash
   at about a quarter of M*, and runs online recovery from three timed
   crashes at about a quarter, a half and three quarters of M*.  A run
   repeats it, each stage timed at the reference speed ([Pace]). *)

module Dag = Ftsched_dag.Dag
module Generators = Ftsched_dag.Generators
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Levels = Ftsched_model.Levels
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Schedule = Ftsched_schedule.Schedule
module Serialize = Ftsched_schedule.Serialize
module Event_sim = Ftsched_sim.Event_sim
module Scenario = Ftsched_sim.Scenario
module Recovery = Ftsched_recovery.Recovery
module Metrics = Ftsched_schedule.Metrics
module Rng = Ftsched_util.Rng

type shape = {
  name : string;
  tasks : int;
  quick_tasks : int;
  generate : Rng.t -> n_tasks:int -> Dag.t;
}

let m = 50
let eps = 2

(* The instance (graph, platform, cost matrix) is the same for every
   seed, like a reference workflow: a layered graph's edge count alone
   varies by several percent from seed to seed, and a seeded platform and
   cost matrix move the recovery's work by 15%, which would swamp the
   changes the benchmark must resolve.  The seed draws the schedulers'
   tie-breaks, which of the three busiest processors the single crash
   strikes, and moves each crash instant by up to 2%. *)
let instance_seed = 2008

let layered =
  {
    name = "scale-layered";
    tasks = 5_000;
    quick_tasks = 200;
    generate = (fun rng ~n_tasks -> Generators.layered rng ~n_tasks ());
  }

let pegasus =
  {
    name = "scale-pegasus";
    tasks = 15_000;
    quick_tasks = 400;
    generate = (fun rng ~n_tasks -> Generators.pegasus rng ~n_tasks ());
  }

(* One operation: the instance built from the seed, then the whole path
   on it. *)
type outcome = {
  build_s : float;  (** DAG, platform, cost matrix, bottom levels *)
  plan_s : float;  (** build -> validated FTSA plan *)
  mc_s : float;
  io_s : float;
  replay_s : float;
  total_s : float;
  summary : string;  (** MD5 of the [%h] results *)
  errors : string list ref;
  edges : int;
  doc_bytes : int;
  events : int;  (** over both simulator runs *)
  injections : int;
  kills : int;
}

let run_one shape ~n_tasks ~seed ~req pace =
  let timed f = Pace.seconds pace f in
  let span layer name f = Trace.span ~req ~layer ~name f in
  let errors = Harness.errors () in
  let err fmt = Harness.err errors fmt in
  let validated what s = Harness.check_plan ~req errors ~what s in
  let (dag, inst), build_s =
    timed (fun () ->
        let rng = Rng.create ~seed:instance_seed in
        let dag = span "dag" "generate" (fun () -> shape.generate rng ~n_tasks) in
        let platform = Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 () in
        let inst =
          span "model" "instance" (fun () -> Instance.random_exec rng ~dag ~platform ())
        in
        ignore (span "model" "levels" (fun () -> Levels.bottom_levels inst));
        (dag, inst))
  in
  let s, ftsa_s =
    timed (fun () ->
        let s = span "kernel" "ftsa" (fun () -> Ftsa.schedule ~seed inst ~eps) in
        validated "ftsa" s;
        s)
  in
  let mc, mc_s =
    timed (fun () ->
        let mc = span "kernel" "mc_ftsa" (fun () -> Mc_ftsa.schedule ~seed inst ~eps) in
        validated "mc-ftsa" mc;
        mc)
  in
  let (doc, doc'), io_s =
    timed (fun () ->
        let doc = span "schedule" "serialize" (fun () -> Serialize.schedule_to_string s) in
        let back = span "schedule" "parse" (fun () -> Serialize.schedule_of_string doc) in
        (doc, span "schedule" "serialize" (fun () -> Serialize.schedule_to_string back)))
  in
  if not (String.equal doc doc') then err "serialize -> parse -> serialize differs";
  let upper = Schedule.latency_upper_bound s in
  let mstar = Schedule.latency_lower_bound s in
  let jitter = Rng.create ~seed in
  let near f = f *. mstar *. Rng.float_in jitter 0.98 1.02 in
  (* failures strike the processors with the most planned work, so every
     seed replays the same kind of failure *)
  let busiest =
    List.init m (fun p -> (Schedule.busy_time s p, p))
    |> List.sort (fun a b -> compare b a)
    |> List.map snd
  in
  (* the replay's three runs are timed one by one: each is long enough
     for the machine's speed to change during it *)
  let simulate what fail_times =
    let r, t = timed (fun () -> span "sim" "event_sim" (fun () -> Event_sim.run s ~fail_times)) in
    (match r.Event_sim.latency with
    | Some l when l <= upper -> ()
    | Some l -> err "%s latency %h above M = %h" what l upper
    | None -> err "%s run defeated" what);
    (r, t)
  in
  let ff, ff_s = simulate "fault-free" (Array.make m infinity) in
  let one_crash, crash_s =
    let ft = Array.make m infinity in
    ft.(List.nth busiest (((seed mod 3) + 3) mod 3)) <- near 0.25;
    simulate "single-crash" ft
  in
  let crashes =
    List.mapi
      (fun k proc -> { Scenario.proc; at = near (float_of_int (k + 1) *. 0.25) })
      (List.filteri (fun k _ -> k < 3) busiest)
  in
  let r, recovery_s =
    timed (fun () ->
        span "recovery" "run" (fun () -> Recovery.run_timed ~delta:(0.02 *. mstar) s crashes))
  in
  let replay_s = ff_s +. crash_s +. recovery_s in
  if not r.Recovery.degraded.Metrics.complete then
    err "recovery from 3 timed crashes did not complete";
  let latency (x : Event_sim.result) = Option.value x.Event_sim.latency ~default:infinity in
  let summary =
    Harness.md5
      (List.map (Printf.sprintf "%h")
         [
           mstar; upper; Schedule.latency_lower_bound mc; latency ff; latency one_crash;
           Option.value r.Recovery.degraded.Metrics.partial_latency ~default:infinity;
         ]
      @ [
          Digest.to_hex (Digest.string doc);
          string_of_int r.Recovery.injections; string_of_int r.Recovery.kills;
        ])
  in
  {
    build_s;
    plan_s = build_s +. ftsa_s;
    mc_s;
    io_s;
    replay_s;
    total_s = build_s +. ftsa_s +. mc_s +. io_s +. replay_s;
    summary;
    errors;
    edges = Dag.n_edges dag;
    doc_bytes = String.length doc + String.length doc';
    events = ff.Event_sim.events_processed + one_crash.Event_sim.events_processed;
    injections = r.Recovery.injections;
    kills = r.Recovery.kills;
  }

type rep = { out : outcome; traced : bool; gc : Harness.gc_mark * Harness.gc_mark }

let run shape (cfg : Harness.config) = Pace.with_helper ~quick:cfg.quick @@ fun pace ->
  let n_tasks = if cfg.quick then shape.quick_tasks else shape.tasks in
  let seed = cfg.seed in
  let checks = Harness.checks () in
  let reference = ref None in
  let agree i o =
    Harness.count checks o.errors;
    match !reference with
    | None -> reference := Some o.summary
    | Some d when d <> o.summary ->
        Harness.problem checks "rep %d: results differ from the first" i
    | Some _ -> ()
  in
  let peak_rss_mb = ref nan in
  (* Traced runs alternate traced and untraced repetitions. *)
  let rep i =
    (* each operation starts from a collected heap, as in a planning
       process of its own, not paying for the previous one's garbage *)
    Gc.full_major ();
    let traced = cfg.trace && i mod 2 = 1 in
    Trace.enabled := traced;
    let g0 = Harness.gc_mark () in
    let out = run_one shape ~n_tasks ~seed ~req:i pace in
    let g1 = Harness.gc_mark () in
    Trace.enabled := false;
    (* after the first operation, as one planning process would see it:
       later ones add how far the collector lags behind the repetition *)
    if i = 0 then begin
      peak_rss_mb := Report.peak_rss_mb ();
      Printf.printf "instance: %d tasks, %d edges, m = %d, eps = %d\n" n_tasks out.edges m eps
    end;
    agree i out;
    { out; traced; gc = (g0, g1) }
  in
  let reps = Harness.repeat ~seconds:cfg.seconds ~min_reps:(if cfg.quick then 2 else 3) rep in
  let plain = List.filter (fun r -> not r.traced) reps in
  let ms f = 1e3 *. Harness.median_over (fun r -> f r.out) plain in
  let e2e () =
    let times = Array.of_list (List.map (fun r -> 1e3 *. r.out.total_s) plain) in
    [
      Report.metric "setup_s" "s" (Harness.median_over (fun r -> r.out.build_s) reps);
      Report.metric "peak_rss_mb" "MB" !peak_rss_mb;
      Report.metric "ops_per_s" "1/s" (Harness.median_over (fun r -> 1. /. r.out.total_s) plain);
      Report.metric "op_p50_ms" "ms" (Ftsched_util.Stats.median times);
      (* a handful of operations supports no percentile above the median *)
      Report.metric "op_tail_ms" "ms" (Stats.tail ~target:0.99 times);
      Report.metric "plan_ms" "ms" (ms (fun o -> o.plan_s));
      Report.metric "mc_plan_ms" "ms" (ms (fun o -> o.mc_s));
      Report.metric "io_ms" "ms" (ms (fun o -> o.io_s));
      Report.metric "replay_ms" "ms" (ms (fun o -> o.replay_s));
    ]
  in
  let layers () =
    let traced = List.filter (fun r -> r.traced) reps in
    let sum f = float_of_int (List.fold_left (fun a r -> a + f r.out) 0 traced) in
    let n_traced = float_of_int (List.length traced) in
    let spans = Trace.spans () in
    let sim_ms =
      match Hashtbl.find_opt (Trace.totals spans) "sim.event_sim" with
      | Some t -> t.Trace.self_ms
      | None -> 0.
    in
    let first = List.hd plain in
    let total rs = Harness.median_over (fun r -> r.out.total_s) rs in
    Layers.metrics ~spans
      ~extras:
        ([
           ("kernel.ftsa.tasks", float_of_int n_tasks *. n_traced);
           ("kernel.mc_ftsa.tasks", float_of_int n_tasks *. n_traced);
           ("schedule.serialize.bytes", sum (fun o -> o.doc_bytes));
           ("sim.event_sim.events", sum (fun o -> o.events) /. (2. *. n_traced));
           ("sim.event_sim.events_per_s", sum (fun o -> o.events) /. (sim_ms /. 1e3));
           ("recovery.run.injections", sum (fun o -> o.injections) /. n_traced);
           ("recovery.run.kills", sum (fun o -> o.kills) /. n_traced);
           ("trace.overhead_pct", 100. *. ((total traced /. total plain) -. 1.));
         ]
        @ Harness.gc_extras ~ops:1 (fst first.gc) (snd first.gc))
  in
  {
    Report.workload = shape.name;
    seed;
    reps = List.length reps;
    attempted = List.length reps;
    failed = checks.Harness.failed;
    problems = List.rev checks.Harness.problems;
    digest = Option.value !reference ~default:"none";
    metrics = (if cfg.trace then layers () else e2e ());
  }

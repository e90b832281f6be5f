module Table = Ftsched_util.Table
module Rng = Ftsched_util.Rng
module Instance = Ftsched_model.Instance
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Ca_ftsa = Ftsched_core.Ca_ftsa
module Ftbar = Ftsched_baseline.Ftbar
module Par = Ftsched_par.Par
module Esim = Ftsched_sim.Event_sim
module Crash_exec = Ftsched_sim.Crash_exec

type panels = {
  bounds : Table.t;
  crash : Table.t;
  overhead : Table.t;
  mc_defeats : Table.t;
}

let fmt3 x = Printf.sprintf "%.3f" x
let fmt_pct x = Printf.sprintf "%.1f" x

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

(* Column-wise sums of equally long rows, each summed in list order. *)
let column_sums rows =
  List.mapi (fun c _ -> sum (fun row -> List.nth row c) rows) (List.hd rows)

(* [f g x] for every graph [g] of the point and every sweep value [x] of
   [xs], one row of cells per [x]; each cell summed over the graphs in
   index order. *)
let cell_sums spec ~master_seed ~granularity xs f =
  let per_graph =
    Workload.graphs spec ~master_seed ~granularity (fun g -> List.map (f g) xs)
  in
  List.mapi
    (fun i _ -> column_sums (List.map (fun rows -> List.nth rows i) per_graph))
    xs

(* Overhead of [metric] against fault-free FTSA, per graph, then
   averaged — the §6 formula. *)
let mean_overhead results metric =
  Runner.mean
    (fun r ->
      let baseline = Runner.value r Runner.Fault_free_ftsa in
      100. *. (Runner.value r metric -. baseline) /. baseline)
    results

(* One row per [(label, graph results)] point, one cell per
   [(header, cell)] column. *)
let results_table first_header columns points =
  let t = Table.create ~columns:(first_header :: List.map fst columns) in
  List.iter
    (fun (label, rs) ->
      Table.add_row t (label :: List.map (fun (_, cell) -> cell rs) columns))
    points;
  t

let by_granularity points =
  List.map (fun (gr, rs) -> (Printf.sprintf "%.1f" gr, rs)) points

let mean_column (header, metric) =
  (header, fun rs -> fmt3 (Runner.mean_of rs metric))

let overhead_column (header, metric) =
  (header ^ " ovh%", fun rs -> fmt_pct (mean_overhead rs metric))

let algo_label = function
  | Runner.Ftsa -> "FTSA"
  | Runner.Mc_ftsa -> "MC-FTSA"
  | Runner.Ftbar -> "FTBAR"

(* The crash and overhead panels: FTSA at every crash count, [rivals] too
   at the count equal to ε. *)
let crash_panels ~eps ~crash_counts ~rivals points =
  let columns =
    List.concat_map
      (fun c ->
        List.map
          (fun a ->
            (Printf.sprintf "%s-%dcrash" (algo_label a) c, Runner.Crash (a, c)))
          (if c = eps then Runner.Ftsa :: rivals else [ Runner.Ftsa ]))
      crash_counts
  in
  ( results_table "granularity"
      (List.map mean_column
         (columns @ [ ("FaultFree-FTSA", Runner.Fault_free_ftsa) ]))
      points,
    results_table "granularity" (List.map overhead_column columns) points )

let figure ?(spec = Workload.quick) ?(master_seed = 2008) ?crash_samples ~eps
    ~crash_counts () =
  let points =
    by_granularity
      (Runner.sweep spec ~master_seed ~eps ~crash_counts ?crash_samples ())
  in
  let bounds =
    results_table "granularity"
      (List.map mean_column
         Runner.
           [
             ("FTSA-LB", Lower Ftsa); ("FTSA-UB", Upper Ftsa);
             ("FTBAR-LB", Lower Ftbar); ("FTBAR-UB", Upper Ftbar);
             ("MC-FTSA-LB", Lower Mc_ftsa); ("MC-FTSA-UB", Upper Mc_ftsa);
             ("FaultFree-FTSA", Fault_free_ftsa);
             ("FaultFree-FTBAR", Fault_free_ftbar);
           ])
      points
  in
  let crash, overhead =
    crash_panels ~eps ~crash_counts ~rivals:[ Runner.Mc_ftsa; Runner.Ftbar ]
      points
  in
  let mc_defeats =
    results_table "granularity"
      [
        ( "MC-strict-defeat-rate",
          fun rs ->
            fmt3 (Runner.mean (fun r -> r.Runner.mc_strict_defeated) rs) );
      ]
      points
  in
  { bounds; crash; overhead; mc_defeats }

let figure4 ?(spec = Workload.quick) ?(master_seed = 2008) ?crash_samples () =
  let eps = 2 and crash_counts = [ 0; 1; 2 ] in
  Runner.sweep (Workload.with_procs spec 5) ~master_seed ~eps ~crash_counts
    ?crash_samples ()
  |> by_granularity
  |> crash_panels ~eps ~crash_counts ~rivals:[]

let paper_sizes = [ 100; 500; 1000; 2000; 3000; 5000 ]

let contention_ablation ?(spec = Workload.quick) ?(master_seed = 2008) ~eps
    ~ports () =
  let models =
    (Esim.Contention_free, "free", None)
    :: List.map
         (fun k -> (Esim.Sender_ports k, Printf.sprintf "%d-port" k, Some k))
         ports
  in
  (* Under a contended model we additionally evaluate CA-FTSA, the
     contention-aware variant scheduling with that port budget. *)
  let columns_of (_, tag, ca) =
    match ca with
    | None -> [ "FTSA " ^ tag; "MC-FTSA " ^ tag ]
    | Some _ -> [ "FTSA " ^ tag; "CA-FTSA " ^ tag; "MC-FTSA " ^ tag ]
  in
  let table =
    Table.create ~columns:("granularity" :: List.concat_map columns_of models)
  in
  List.iter
    (fun granularity ->
      let per_graph =
        Workload.graphs spec ~master_seed ~granularity (fun g ->
            let inst = g.Workload.instance and seed = g.Workload.seed in
            let f = Ftsa.schedule ~seed inst ~eps in
            let mc = Mc_ftsa.schedule ~seed inst ~eps in
            let m = Instance.n_procs inst in
            g.Workload.normalizer
            :: List.concat_map
                 (fun (model, _, ca) ->
                   let lat s =
                     match
                       (Esim.run ~network:model s
                          ~fail_times:(Array.make m infinity))
                         .Esim.latency
                     with
                     | Some l -> l
                     | None -> invalid_arg "contention_ablation: defeated"
                   in
                   match ca with
                   | Some k ->
                       [ lat f; lat (Ca_ftsa.schedule ~seed ~ports:k inst ~eps);
                         lat mc ]
                   | None -> [ lat f; lat mc ])
                 models)
      in
      let n = float_of_int spec.Workload.graphs_per_point in
      match column_sums per_graph with
      | norm :: totals ->
          Table.add_row table
            (Printf.sprintf "%.1f" granularity
            :: List.map (fun t -> fmt3 (t /. n /. (norm /. n))) totals)
      | [] -> assert false)
    Workload.granularities;
  table

let reliability_ablation ?(spec = Workload.quick) ?(master_seed = 2008)
    ?(trials = 1500) ~p_fail () =
  let module R = Ftsched_reliability.Reliability in
  let table =
    Table.create
      ~columns:
        [
          "eps"; "Thm-4.1 bound"; "FTSA (MC est)"; "MC-FTSA strict (MC est)";
          "MC-FTSA reroute (MC est)";
        ]
  in
  let epsilons = [ 0; 1; 2; 3; 4 ] in
  let sums =
    cell_sums spec ~master_seed ~granularity:1.0 epsilons (fun g eps ->
        let inst = g.Workload.instance and seed = g.Workload.seed in
        let s_ftsa = Ftsa.schedule ~seed inst ~eps in
        let s_mc = Mc_ftsa.schedule ~seed inst ~eps in
        let rng = Rng.create ~seed:(seed + 101) in
        let bound = R.binomial_bound s_ftsa ~p_fail in
        let estimate s policy =
          (R.monte_carlo rng s policy ~p_fail ~trials).R.mean
        in
        let ftsa = estimate s_ftsa Crash_exec.Strict in
        let strict = estimate s_mc Crash_exec.Strict in
        let reroute = estimate s_mc Crash_exec.Reroute in
        [ bound; ftsa; strict; reroute ])
  in
  let n = float_of_int spec.Workload.graphs_per_point in
  List.iter2
    (fun eps row ->
      Table.add_row table
        (string_of_int eps
        :: List.map (fun s -> Printf.sprintf "%.4f" (s /. n)) row))
    epsilons sums;
  table

let procs_sweep ?(spec = Workload.quick) ?(master_seed = 2008) ?crash_samples
    ~eps ~procs () =
  let crashed = Runner.Crash (Runner.Ftsa, eps) in
  results_table "procs"
    (List.map mean_column
       Runner.
         [
           ("FaultFree-FTSA", Fault_free_ftsa); ("FTSA M*", Lower Ftsa);
           ("FTSA M", Upper Ftsa); (Printf.sprintf "FTSA %dcrash" eps, crashed);
         ]
    @ [ ("overhead %", fun rs -> fmt_pct (mean_overhead rs crashed)) ])
    (List.map
       (fun m ->
         if m <= eps then invalid_arg "Figures.procs_sweep: procs <= eps";
         ( string_of_int m,
           Runner.run_point (Workload.with_procs spec m) ~master_seed
             ~granularity:1.0 ~eps ~crash_counts:[ eps ] ?crash_samples () ))
       procs)

let rftsa_ablation ?(spec = Workload.quick) ?(master_seed = 2008)
    ?(trials = 800) ?(flaky_factor = 20.) ~eps () =
  let module R = Ftsched_reliability.Reliability in
  let module R_ftsa = Ftsched_core.R_ftsa in
  let module Schedule = Ftsched_schedule.Schedule in
  let table =
    Table.create
      ~columns:[ "alpha"; "M* (norm)"; "M (norm)"; "mission reliability" ]
  in
  let alphas = [ 0.; 0.1; 0.2; 0.3; 0.5 ] in
  let sums =
    cell_sums spec ~master_seed ~granularity:1.0 alphas (fun g alpha ->
        let inst = g.Workload.instance and seed = g.Workload.seed in
        let m = Instance.n_procs inst in
        (* calibrate the base rate against FTSA's horizon so the sweep
           sits in the informative part of the reliability curve *)
        let horizon =
          Schedule.latency_upper_bound (Ftsa.schedule ~seed inst ~eps)
        in
        let base = 0.05 /. horizon in
        let rates =
          Array.init m (fun p ->
              if p mod 2 = 0 then flaky_factor *. base else base)
        in
        let s = R_ftsa.schedule ~seed ~alpha ~rates inst ~eps in
        let rng = Rng.create ~seed:(seed + 7) in
        [
          Schedule.latency_lower_bound s;
          Schedule.latency_upper_bound s;
          (fst (R.mission rng s ~rates ~rate:0. ~trials ())).R.mean;
          g.Workload.normalizer;
        ])
  in
  let n = float_of_int spec.Workload.graphs_per_point in
  List.iter2
    (fun alpha row ->
      match row with
      | [ lb; ub; rel; norm ] ->
          Table.add_row table
            [
              Printf.sprintf "%.2f" alpha;
              fmt3 (lb /. norm);
              fmt3 (ub /. norm);
              Printf.sprintf "%.4f" (rel /. n);
            ]
      | _ -> assert false)
    alphas sums;
  table

let redundancy_ablation ?(spec = Workload.quick) ?(master_seed = 2008)
    ?(scenarios_per_graph = 4) ~eps () =
  let module Schedule = Ftsched_schedule.Schedule in
  let module Scenario = Ftsched_sim.Scenario in
  let table =
    Table.create
      ~columns:
        [
          "senders/input"; "defeat rate (strict)"; "messages (mean)";
          "M* (norm)"; "M (norm)";
        ]
  in
  let sender_counts = List.init (eps + 1) (fun i -> i + 1) in
  let sums =
    cell_sums spec ~master_seed ~granularity:1.0 sender_counts
      (fun g senders ->
        let inst = g.Workload.instance and seed = g.Workload.seed in
        let s =
          Mc_ftsa.schedule ~seed ~strategy:(Mc_ftsa.Redundant senders) inst
            ~eps
        in
        let rng = Rng.create ~seed:(seed + 17) in
        let defeats = ref 0 in
        for _ = 1 to scenarios_per_graph do
          let sc = Scenario.random rng ~m:(Instance.n_procs inst) ~count:eps in
          if not (Crash_exec.survives ~policy:Crash_exec.Strict s sc) then
            incr defeats
        done;
        [
          float_of_int !defeats;
          float_of_int (Schedule.inter_processor_messages s);
          Schedule.latency_lower_bound s;
          Schedule.latency_upper_bound s;
          g.Workload.normalizer;
        ])
  in
  let n = float_of_int spec.Workload.graphs_per_point in
  let trials =
    float_of_int (spec.Workload.graphs_per_point * scenarios_per_graph)
  in
  List.iter2
    (fun senders row ->
      match row with
      | [ defeats; msgs; lb; ub; norm ] ->
          Table.add_row table
            [
              string_of_int senders;
              Printf.sprintf "%.3f" (defeats /. trials);
              Printf.sprintf "%.0f" (msgs /. n);
              fmt3 (lb /. n /. (norm /. n));
              fmt3 (ub /. n /. (norm /. n));
            ]
      | _ -> assert false)
    sender_counts sums;
  table

type recovery_panels = {
  campaign : Table.t;
  exact_eps : Table.t;
}

let defeat (r : Esim.result) = if r.latency = None then 1. else 0.

let completed_share (d : Ftsched_schedule.Metrics.degraded) =
  float_of_int d.completed_tasks /. float_of_int d.total_tasks

(* The scenarios of one campaign row, [scenario p] called once per prepared
   graph [p] in index order, then on k = 0 .. [per_graph - 1]; each
   scenario returns its observations and its recovered run.  Gives the
   column sums of the observations, the scenario count, and the mean
   normalized latency of the recovered runs that completed ("-" when none
   did). *)
let tally prepared ~per_graph scenario =
  let runs =
    List.concat_map (fun p -> List.init per_graph (scenario p)) prepared
  in
  let completed =
    List.filter_map
      (fun (_, ((g : Workload.graph), (r : Esim.result))) ->
        Option.map (fun l -> l /. g.normalizer) r.latency)
      runs
  in
  ( column_sums (List.map fst runs),
    float_of_int (List.length runs),
    match completed with
    | [] -> "-"
    | _ -> fmt3 (sum Fun.id completed /. float_of_int (List.length completed))
  )

(* A5: the online-recovery campaign.  Timed failure scenarios drawn from
   per-processor exponential laws, swept over failure intensity (expected
   failures per processor over the static FTSA horizon) and detection
   latency (as a fraction of that horizon); plus an exactly-ε panel
   isolating the MC-FTSA starvation cascade that recovery must repair. *)
let recovery_ablation ?(spec = Workload.quick) ?(master_seed = 2008)
    ?(scenarios_per_graph = 5) ?(eps = 2)
    ?(intensities = [ 0.01; 0.05; 0.15; 0.3 ])
    ?(delta_factors = [ 0.; 0.02; 0.1 ]) () =
  let module Scenario = Ftsched_sim.Scenario in
  let module Recovery = Ftsched_recovery.Recovery in
  let module Schedule = Ftsched_schedule.Schedule in
  (* Shared per-graph state: the graph, its schedules and horizon. *)
  let prepared =
    Workload.graphs spec ~master_seed ~granularity:1.0 (fun g ->
        let inst = g.Workload.instance and seed = g.Workload.seed in
        let s_ftsa = Ftsa.schedule ~seed inst ~eps in
        let s_mc = Mc_ftsa.schedule ~seed inst ~eps in
        let s_unrep = Ftsa.schedule ~seed inst ~eps:0 in
        (g, s_ftsa, s_mc, s_unrep, Schedule.latency_upper_bound s_ftsa))
  in
  let campaign =
    Table.create
      ~columns:
        [
          "intensity"; "delta/hor"; "FTSA defeat"; "MC defeat";
          "MC+rec defeat"; "unrep+rec defeat"; "MC+rec lat";
          "unrep+rec tasks%";
        ]
  in
  (* One row per (intensity, delta) pair.  Rows are independent — each
     re-creates its per-graph RNG from the graph's seed — so they fan out
     over the pool; [prepared] is shared read-only. *)
  let campaign_row (intensity, delta_factor) =
    match
      tally prepared ~per_graph:scenarios_per_graph
        (fun ((g : Workload.graph), s_ftsa, s_mc, s_unrep, horizon) ->
          let rates =
            Array.make (Instance.n_procs g.instance) (intensity /. horizon)
          in
          let delta = delta_factor *. horizon in
          let rng = Rng.create ~seed:(g.seed + 13) in
          fun _ ->
            let fail_times = Scenario.exponential rng ~rates in
            let mc = Recovery.run ~delta s_mc ~fail_times in
            let unrep = Recovery.run ~delta s_unrep ~fail_times in
            ( [
                defeat (Esim.run s_ftsa ~fail_times);
                defeat (Esim.run s_mc ~fail_times);
                defeat mc.Recovery.result;
                defeat unrep.Recovery.result;
                completed_share unrep.Recovery.degraded;
              ],
              (g, mc.Recovery.result) ))
    with
    | [ ftsa; mc; mcr; unrep; tasks ], trials, mcr_lat ->
        [
          Printf.sprintf "%.2f" intensity;
          Printf.sprintf "%.2f" delta_factor;
          fmt3 (ftsa /. trials);
          fmt3 (mc /. trials);
          fmt3 (mcr /. trials);
          fmt3 (unrep /. trials);
          mcr_lat;
          fmt_pct (100. *. tasks /. trials);
        ]
    | _ -> assert false
  in
  let combos =
    List.concat_map
      (fun intensity ->
        List.map (fun delta_factor -> (intensity, delta_factor)) delta_factors)
      intensities
  in
  List.iter (Table.add_row campaign) (Par.parallel_map campaign_row combos);
  (* Exactly-ε panel: random timed scenarios with exactly [eps] failing
     processors — the regime where Theorem 4.1 protects FTSA but the
     strict MC-FTSA cascade collapses (Finding 1).  Recovery must bring
     the defeat rate to zero. *)
  let exact_eps =
    Table.create
      ~columns:
        [
          "delta/hor"; "MC defeat (static)"; "MC+rec defeat"; "MC+rec lat";
          "mean injections";
        ]
  in
  let exact_eps_row delta_factor =
    match
      tally prepared ~per_graph:scenarios_per_graph
        (fun ((g : Workload.graph), _, s_mc, _, horizon) ->
          let m = Instance.n_procs g.instance in
          let delta = delta_factor *. horizon in
          let rng = Rng.create ~seed:(g.seed + 29) in
          fun _ ->
            let timed = Scenario.random_timed rng ~m ~count:eps ~horizon in
            let o = Recovery.run_timed ~delta s_mc timed in
            ( [
                defeat (Esim.run_timed s_mc timed);
                defeat o.Recovery.result;
                float_of_int o.Recovery.injections;
              ],
              (g, o.Recovery.result) ))
    with
    | [ mc; mcr; injections ], trials, mcr_lat ->
        [
          Printf.sprintf "%.2f" delta_factor;
          fmt3 (mc /. trials);
          fmt3 (mcr /. trials);
          mcr_lat;
          Printf.sprintf "%.1f" (injections /. trials);
        ]
    | _ -> assert false
  in
  List.iter (Table.add_row exact_eps)
    (Par.parallel_map exact_eps_row delta_factors);
  { campaign; exact_eps }

(* A6: link failures and retransmission.  No processor ever dies here —
   every inter-processor message is lost independently with the row's
   probability, and the question is how much protection FTSA's redundant
   (ε+1)² messaging buys over MC-FTSA's pruned one-to-one plan, first
   with the retransmission protocol off (retries = 0), then with it on,
   and finally with the PR-1 recovery runtime repairing MC-FTSA's
   starvation on top. *)
let link_loss_ablation ?(spec = Workload.quick) ?(master_seed = 2008)
    ?(scenarios_per_graph = 5) ?(eps = 2)
    ?(losses = [ 0.02; 0.05; 0.1; 0.2; 0.4 ]) ?(retries = 3) () =
  let module Scenario = Ftsched_sim.Scenario in
  let module Recovery = Ftsched_recovery.Recovery in
  let module Metrics = Ftsched_schedule.Metrics in
  let prepared =
    Workload.graphs spec ~master_seed ~granularity:1.0 (fun g ->
        let inst = g.Workload.instance and seed = g.Workload.seed in
        (g, Ftsa.schedule ~seed inst ~eps, Mc_ftsa.schedule ~seed inst ~eps))
  in
  let table =
    Table.create
      ~columns:
        [
          "loss"; "FTSA dft noRT"; "MC dft noRT"; "MC tasks% noRT";
          "FTSA dft RT"; "MC dft RT"; "MC retrans"; "MC+rec dft";
          "MC+rec lat";
        ]
  in
  (* One row per loss rate, fanned out over the pool: every scenario's
     fault stream is seeded from (graph seed, sample index), so rows are
     independent and the table is bit-identical at any worker count. *)
  let loss_row loss =
    match
      tally prepared ~per_graph:scenarios_per_graph
        (fun ((g : Workload.graph), s_ftsa, s_mc) ->
          let fail_times = Array.make (Instance.n_procs g.instance) infinity in
          let dag = Instance.dag g.instance in
          fun k ->
            (* The same fault seed across variants pairs the comparison;
               the draws still diverge with the message count. *)
            let fseed = g.seed + (101 * (k + 1)) in
            let no_rt = Scenario.lossy ~loss ~retries:0 ~seed:fseed () in
            let rt = Scenario.lossy ~loss ~retries ~seed:fseed () in
            let r_mc = Esim.run ~faults:no_rt s_mc ~fail_times in
            let r_mc_rt = Esim.run ~faults:rt s_mc ~fail_times in
            let o = Recovery.run ~faults:rt s_mc ~fail_times in
            ( [
                defeat (Esim.run ~faults:no_rt s_ftsa ~fail_times);
                defeat r_mc;
                completed_share
                  (Metrics.degraded_of_run dag
                     ~first_finish:(Esim.first_finish r_mc));
                defeat (Esim.run ~faults:rt s_ftsa ~fail_times);
                defeat r_mc_rt;
                float_of_int r_mc_rt.Esim.retransmissions;
                defeat o.Recovery.result;
              ],
              (g, o.Recovery.result) ))
    with
    | [ ftsa_nort; mc_nort; mc_tasks; ftsa_rt; mc_rt; retrans; mcr ], trials,
      mcr_lat ->
        [
          Printf.sprintf "%.2f" loss;
          fmt3 (ftsa_nort /. trials);
          fmt3 (mc_nort /. trials);
          fmt_pct (100. *. mc_tasks /. trials);
          fmt3 (ftsa_rt /. trials);
          fmt3 (mc_rt /. trials);
          Printf.sprintf "%.1f" (retrans /. trials);
          fmt3 (mcr /. trials);
          mcr_lat;
        ]
    | _ -> assert false
  in
  List.iter (Table.add_row table) (Par.parallel_map loss_row losses);
  table

(* Adversarial timed worst case (Ftsched_sim.Adversary) on instance 0 at
   granularity 1.0: one FTSA and one MC-FTSA schedule, each searched for
   its worst eps processor deaths plus one link blackout. *)
let adversary_table ?(spec = Workload.quick) ?(master_seed = 2008) ~eps () =
  let module Adversary = Ftsched_sim.Adversary in
  let inst = Workload.instance spec ~master_seed ~granularity:1.0 ~index:0 in
  let fmt_outcome = function
    | Adversary.Defeated -> "defeated"
    | Adversary.Latency l -> Printf.sprintf "%.1f" l
  in
  let table =
    Table.create
      ~columns:[ "algo"; "verdict"; "untimed worst"; "timed worst"; "evals" ]
  in
  List.iter
    (fun (name, s) ->
      let r = Adversary.search ~links:1 s ~count:eps in
      Table.add_row table
        [
          name;
          (match r.Adversary.verdict with
          | Adversary.Certified -> "certified"
          | Adversary.Empirical -> "empirical");
          fmt_outcome r.Adversary.untimed_worst;
          fmt_outcome r.Adversary.worst;
          string_of_int r.Adversary.evaluations;
        ])
    [
      ("ftsa", Ftsa.schedule inst ~eps); ("mc-ftsa", Mc_ftsa.schedule inst ~eps);
    ];
  table

let table1 ?(sizes = [ 100; 500; 1000 ]) ?(m = 50) ?(eps = 5) ?(seed = 1)
    () =
  let table =
    Table.create ~columns:[ "tasks"; "FTSA (s)"; "MC-FTSA (s)"; "FTBAR (s)" ]
  in
  List.iter
    (fun n_tasks ->
      let inst = Workload.sized ~seed:(seed + n_tasks) ~n_tasks ~m in
      let time = Runner.cpu_per_run in
      let t_ftsa = time (fun () -> Ftsa.schedule ~seed inst ~eps) in
      let t_mc = time (fun () -> Mc_ftsa.schedule ~seed inst ~eps) in
      let t_ftbar = time (fun () -> Ftbar.schedule ~seed inst ~npf:eps) in
      Table.add_row table
        [
          string_of_int n_tasks;
          Printf.sprintf "%.3f" t_ftsa;
          Printf.sprintf "%.3f" t_mc;
          Printf.sprintf "%.3f" t_ftbar;
        ])
    sizes;
  table

(* ------------------------------------------------------------------ *)
(* A7: streaming & chaos                                               *)

let stream_ablation ?(master_seed = 2008) ?(seeds_per_point = 10)
    ?(rates = [ 0.3; 0.6; 1.0 ]) ?(crash_rates = [ 0.; 0.05; 0.15 ]) () =
  let module Stream = Ftsched_stream.Stream in
  let point ~rate ~crash_rate ~shadow =
    let config =
      {
        Stream.default_config with
        Stream.rate;
        duration = 40.;
        chaos = { Stream.default_chaos with Stream.crash_rate };
        shadow;
      }
    in
    let reports =
      Par.parallel_init seeds_per_point (fun i ->
          Stream.run_trace ~config ~seed:(master_seed + i) ())
    in
    let clean =
      List.for_all (fun r -> Stream.check_report r = []) reports
    in
    (Stream.merge_totals reports, clean)
  in
  let miss (t : Stream.totals) =
    if t.Stream.admitted = 0 then 0.
    else float_of_int t.Stream.deadline_misses /. float_of_int t.Stream.admitted
  in
  let table =
    Table.create
      ~columns:
        [
          "arrival rate";
          "crash rate";
          "admitted";
          "thr shadow";
          "thr static";
          "miss shadow";
          "miss static";
          "hits";
          "stale";
          "oracle";
        ]
  in
  List.iter
    (fun rate ->
      List.iter
        (fun crash_rate ->
          let sh, clean_sh = point ~rate ~crash_rate ~shadow:true in
          let st, clean_st = point ~rate ~crash_rate ~shadow:false in
          Table.add_row table
            [
              fmt3 rate;
              fmt3 crash_rate;
              string_of_int sh.Stream.admitted;
              Printf.sprintf "%.4g" sh.Stream.throughput;
              Printf.sprintf "%.4g" st.Stream.throughput;
              fmt3 (miss sh);
              fmt3 (miss st);
              string_of_int sh.Stream.shadow_hits;
              string_of_int sh.Stream.shadow_stale;
              (if clean_sh && clean_st then "ok" else "VIOLATED");
            ])
        crash_rates)
    rates;
  table

let tournament_matrix ?(master_seed = 2008) ?(pairs = 12) ?(iters = 120) () =
  let module T = Ftsched_tournament.Tournament in
  let r = T.campaign ~pairs ~iters ~seed:master_seed () in
  T.matrix_table r

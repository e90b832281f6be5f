module Table = Ftsched_util.Table
module Rng = Ftsched_util.Rng
module Gen = Ftsched_dag.Generators
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Ca_ftsa = Ftsched_core.Ca_ftsa
module Ftbar = Ftsched_baseline.Ftbar
module Par = Ftsched_par.Par

type panels = {
  bounds : Table.t;
  crash : Table.t;
  overhead : Table.t;
  mc_defeats : Table.t;
}

let fmt3 x = Printf.sprintf "%.3f" x
let fmt_pct x = Printf.sprintf "%.1f" x

(* Overhead of metric [key] against fault-free FTSA, per graph, then
   averaged — the §6 formula.  Lookups go through the per-graph
   pre-indexed metric table, not the assoc list. *)
let mean_overhead results key =
  let values =
    List.map
      (fun (r : Runner.graph_result) ->
        let get k =
          match Runner.metric r k with
          | Some v -> v
          | None -> invalid_arg ("Figures: unknown metric " ^ k)
        in
        let baseline = get "ff_ftsa" in
        100. *. (get key -. baseline) /. baseline)
      results
  in
  List.fold_left ( +. ) 0. values /. float_of_int (List.length values)

let figure ?(spec = Workload.quick) ?(master_seed = 2008) ?crash_samples ?jobs
    ~eps ~crash_counts () =
  let points =
    Par.parallel_map ?jobs
      (fun granularity ->
        ( granularity,
          Runner.run_point spec ~master_seed ~granularity ~eps ~crash_counts
            ?crash_samples ?jobs () ))
      Workload.granularities
  in
  let bounds =
    Table.create
      ~columns:
        [
          "granularity"; "FTSA-LB"; "FTSA-UB"; "FTBAR-LB"; "FTBAR-UB";
          "MC-FTSA-LB"; "MC-FTSA-UB"; "FaultFree-FTSA"; "FaultFree-FTBAR";
        ]
  in
  List.iter
    (fun (gr, rs) ->
      let v k = Runner.mean_of rs k in
      Table.add_row bounds
        (Printf.sprintf "%.1f" gr
        :: List.map fmt3
             [
               v "ftsa_lb"; v "ftsa_ub"; v "ftbar_lb"; v "ftbar_ub";
               v "mc_lb"; v "mc_ub"; v "ff_ftsa"; v "ff_ftbar";
             ]))
    points;
  let crash_cols =
    List.concat_map
      (fun c ->
        if c = eps then
          [
            Printf.sprintf "FTSA-%dcrash" c;
            Printf.sprintf "MC-FTSA-%dcrash" c;
            Printf.sprintf "FTBAR-%dcrash" c;
          ]
        else [ Printf.sprintf "FTSA-%dcrash" c ])
      crash_counts
  in
  let crash =
    Table.create ~columns:(("granularity" :: crash_cols) @ [ "FaultFree-FTSA" ])
  in
  let crash_keys c =
    if c = eps then
      [
        Printf.sprintf "ftsa_crash%d" c;
        Printf.sprintf "mc_crash%d" c;
        Printf.sprintf "ftbar_crash%d" c;
      ]
    else [ Printf.sprintf "ftsa_crash%d" c ]
  in
  List.iter
    (fun (gr, rs) ->
      let cells =
        List.concat_map
          (fun c -> List.map (fun k -> fmt3 (Runner.mean_of rs k)) (crash_keys c))
          crash_counts
      in
      Table.add_row crash
        ((Printf.sprintf "%.1f" gr :: cells)
        @ [ fmt3 (Runner.mean_of rs "ff_ftsa") ]))
    points;
  let overhead =
    Table.create ~columns:("granularity" :: List.map (fun c -> c ^ " ovh%") crash_cols)
  in
  List.iter
    (fun (gr, rs) ->
      let cells =
        List.concat_map
          (fun c ->
            List.map (fun k -> fmt_pct (mean_overhead rs k)) (crash_keys c))
          crash_counts
      in
      Table.add_row overhead (Printf.sprintf "%.1f" gr :: cells))
    points;
  let mc_defeats =
    Table.create ~columns:[ "granularity"; "MC-strict-defeat-rate" ]
  in
  List.iter
    (fun (gr, rs) ->
      Table.add_row mc_defeats
        [ Printf.sprintf "%.1f" gr; fmt3 (Runner.mean_defeat_rate rs) ])
    points;
  { bounds; crash; overhead; mc_defeats }

let figure4 ?(spec = Workload.quick) ?(master_seed = 2008) ?crash_samples
    ?jobs () =
  let spec = Workload.with_procs spec 5 in
  let eps = 2 in
  let crash_counts = [ 0; 1; 2 ] in
  let points =
    Par.parallel_map ?jobs
      (fun granularity ->
        ( granularity,
          Runner.run_point spec ~master_seed ~granularity ~eps ~crash_counts
            ?crash_samples ?jobs () ))
      Workload.granularities
  in
  let latency =
    Table.create
      ~columns:
        [
          "granularity"; "FTSA-0crash"; "FTSA-1crash"; "FTSA-2crash";
          "FaultFree-FTSA";
        ]
  in
  let overhead =
    Table.create
      ~columns:
        [ "granularity"; "FTSA-0crash ovh%"; "FTSA-1crash ovh%"; "FTSA-2crash ovh%" ]
  in
  List.iter
    (fun (gr, rs) ->
      Table.add_row latency
        (Printf.sprintf "%.1f" gr
        :: List.map fmt3
             [
               Runner.mean_of rs "ftsa_crash0";
               Runner.mean_of rs "ftsa_crash1";
               Runner.mean_of rs "ftsa_crash2";
               Runner.mean_of rs "ff_ftsa";
             ]);
      Table.add_row overhead
        (Printf.sprintf "%.1f" gr
        :: List.map fmt_pct
             [
               mean_overhead rs "ftsa_crash0";
               mean_overhead rs "ftsa_crash1";
               mean_overhead rs "ftsa_crash2";
             ]))
    points;
  (latency, overhead)

let paper_sizes = [ 100; 500; 1000; 2000; 3000; 5000 ]

let contention_ablation ?(spec = Workload.quick) ?(master_seed = 2008) ~eps
    ~ports () =
  let module Esim = Ftsched_sim.Event_sim in
  let module Schedule = Ftsched_schedule.Schedule in
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
  let columns = "granularity" :: List.concat_map columns_of models in
  let n_cols = List.length columns - 1 in
  let table = Table.create ~columns in
  List.iter
    (fun granularity ->
      let totals = Array.make n_cols 0. in
      let norm = ref 0. in
      for index = 0 to spec.Workload.graphs_per_point - 1 do
        let inst = Workload.instance spec ~master_seed ~granularity ~index in
        let seed = master_seed + (31 * index) in
        let f = Ftsa.schedule ~seed inst ~eps in
        let mc = Mc_ftsa.schedule ~seed inst ~eps in
        norm := !norm +. Runner.mean_edge_comm inst;
        let m = Instance.n_procs inst in
        let col = ref 0 in
        let add v =
          totals.(!col) <- totals.(!col) +. v;
          incr col
        in
        List.iter
          (fun (model, _, ca) ->
            let lat s =
              match
                (Esim.run ~network:model s ~fail_times:(Array.make m infinity))
                  .Esim.latency
              with
              | Some l -> l
              | None -> invalid_arg "contention_ablation: defeated"
            in
            add (lat f);
            (match ca with
            | Some k -> add (lat (Ca_ftsa.schedule ~seed ~ports:k inst ~eps))
            | None -> ());
            add (lat mc))
          models
      done;
      let n = float_of_int spec.Workload.graphs_per_point in
      let norm = !norm /. n in
      Table.add_row table
        (Printf.sprintf "%.1f" granularity
        :: (Array.to_list totals |> List.map (fun t -> fmt3 (t /. n /. norm)))))
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
  let granularity = 1.0 in
  let max_eps = 4 in
  for eps = 0 to max_eps do
    let b = ref 0. and f = ref 0. and ms = ref 0. and mr = ref 0. in
    for index = 0 to spec.Workload.graphs_per_point - 1 do
      let inst = Workload.instance spec ~master_seed ~granularity ~index in
      let seed = master_seed + (31 * index) in
      let s_ftsa = Ftsa.schedule ~seed inst ~eps in
      let s_mc = Mc_ftsa.schedule ~seed inst ~eps in
      let rng = Rng.create ~seed:(seed + 101) in
      b := !b +. R.binomial_bound s_ftsa ~p_fail;
      f := !f +. (R.monte_carlo rng s_ftsa R.Strict ~p_fail ~trials).R.mean;
      ms := !ms +. (R.monte_carlo rng s_mc R.Strict ~p_fail ~trials).R.mean;
      mr := !mr +. (R.monte_carlo rng s_mc R.Reroute ~p_fail ~trials).R.mean
    done;
    let n = float_of_int spec.Workload.graphs_per_point in
    Table.add_row table
      [
        string_of_int eps;
        Printf.sprintf "%.4f" (!b /. n);
        Printf.sprintf "%.4f" (!f /. n);
        Printf.sprintf "%.4f" (!ms /. n);
        Printf.sprintf "%.4f" (!mr /. n);
      ]
  done;
  table

let procs_sweep ?(spec = Workload.quick) ?(master_seed = 2008) ?crash_samples
    ~eps ~procs () =
  let table =
    Table.create
      ~columns:
        [
          "procs"; "FaultFree-FTSA"; "FTSA M*"; "FTSA M";
          (Printf.sprintf "FTSA %dcrash" eps); "overhead %";
        ]
  in
  List.iter
    (fun m ->
      if m <= eps then invalid_arg "Figures.procs_sweep: procs <= eps";
      let spec = Workload.with_procs spec m in
      let rs =
        Runner.run_point spec ~master_seed ~granularity:1.0 ~eps
          ~crash_counts:[ eps ] ?crash_samples ()
      in
      let crash_key = Printf.sprintf "ftsa_crash%d" eps in
      Table.add_row table
        [
          string_of_int m;
          fmt3 (Runner.mean_of rs "ff_ftsa");
          fmt3 (Runner.mean_of rs "ftsa_lb");
          fmt3 (Runner.mean_of rs "ftsa_ub");
          fmt3 (Runner.mean_of rs crash_key);
          fmt_pct (mean_overhead rs crash_key);
        ])
    procs;
  table

let rftsa_ablation ?(spec = Workload.quick) ?(master_seed = 2008)
    ?(trials = 800) ?(flaky_factor = 20.) ~eps () =
  let module R = Ftsched_reliability.Reliability in
  let module R_ftsa = Ftsched_core.R_ftsa in
  let module Schedule = Ftsched_schedule.Schedule in
  let table =
    Table.create
      ~columns:[ "alpha"; "M* (norm)"; "M (norm)"; "mission reliability" ]
  in
  let granularity = 1.0 in
  List.iter
    (fun alpha ->
      let lb = ref 0. and ub = ref 0. and rel = ref 0. and norm = ref 0. in
      for index = 0 to spec.Workload.graphs_per_point - 1 do
        let inst = Workload.instance spec ~master_seed ~granularity ~index in
        let seed = master_seed + (31 * index) in
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
        lb := !lb +. Schedule.latency_lower_bound s;
        ub := !ub +. Schedule.latency_upper_bound s;
        norm := !norm +. Runner.mean_edge_comm inst;
        let rng = Rng.create ~seed:(seed + 7) in
        rel :=
          !rel
          +. (fst (R.mission rng s ~rates ~rate:0. ~trials ())).R.mean
      done;
      let n = float_of_int spec.Workload.graphs_per_point in
      Table.add_row table
        [
          Printf.sprintf "%.2f" alpha;
          fmt3 (!lb /. !norm);
          fmt3 (!ub /. !norm);
          Printf.sprintf "%.4f" (!rel /. n);
        ])
    [ 0.; 0.1; 0.2; 0.3; 0.5 ];
  table

let redundancy_ablation ?(spec = Workload.quick) ?(master_seed = 2008)
    ?(scenarios_per_graph = 4) ~eps () =
  let module Schedule = Ftsched_schedule.Schedule in
  let module Scenario = Ftsched_sim.Scenario in
  let module Crash_exec = Ftsched_sim.Crash_exec in
  let table =
    Table.create
      ~columns:
        [
          "senders/input"; "defeat rate (strict)"; "messages (mean)";
          "M* (norm)"; "M (norm)";
        ]
  in
  let granularity = 1.0 in
  List.iter
    (fun senders ->
      let defeats = ref 0 and trials = ref 0 in
      let msgs = ref 0 and lb = ref 0. and ub = ref 0. and norm = ref 0. in
      for index = 0 to spec.Workload.graphs_per_point - 1 do
        let inst = Workload.instance spec ~master_seed ~granularity ~index in
        let seed = master_seed + (31 * index) in
        let s =
          Mc_ftsa.schedule ~seed ~strategy:(Mc_ftsa.Redundant senders) inst ~eps
        in
        msgs := !msgs + Schedule.inter_processor_messages s;
        lb := !lb +. Schedule.latency_lower_bound s;
        ub := !ub +. Schedule.latency_upper_bound s;
        norm := !norm +. Runner.mean_edge_comm inst;
        let rng = Rng.create ~seed:(seed + 17) in
        for _ = 1 to scenarios_per_graph do
          incr trials;
          let sc =
            Scenario.random rng ~m:(Instance.n_procs inst) ~count:eps
          in
          if
            (Crash_exec.run ~policy:Crash_exec.Strict s sc).Crash_exec.latency
            = None
          then incr defeats
        done
      done;
      let n = float_of_int spec.Workload.graphs_per_point in
      Table.add_row table
        [
          string_of_int senders;
          Printf.sprintf "%.3f" (float_of_int !defeats /. float_of_int !trials);
          Printf.sprintf "%.0f" (float_of_int !msgs /. n);
          fmt3 (!lb /. n /. (!norm /. n));
          fmt3 (!ub /. n /. (!norm /. n));
        ])
    (List.init (eps + 1) (fun i -> i + 1));
  table

type recovery_panels = {
  campaign : Table.t;
  exact_eps : Table.t;
}

(* A5: the online-recovery campaign.  Timed failure scenarios drawn from
   per-processor exponential laws, swept over failure intensity (expected
   failures per processor over the static FTSA horizon) and detection
   latency (as a fraction of that horizon); plus an exactly-ε panel
   isolating the MC-FTSA starvation cascade that recovery must repair. *)
let recovery_ablation ?(spec = Workload.quick) ?(master_seed = 2008)
    ?(scenarios_per_graph = 5) ?(eps = 2)
    ?(intensities = [ 0.01; 0.05; 0.15; 0.3 ])
    ?(delta_factors = [ 0.; 0.02; 0.1 ]) ?jobs () =
  let module Esim = Ftsched_sim.Event_sim in
  let module Scenario = Ftsched_sim.Scenario in
  let module Recovery = Ftsched_recovery.Recovery in
  let module Schedule = Ftsched_schedule.Schedule in
  let module Metrics = Ftsched_schedule.Metrics in
  let granularity = 1.0 in
  let graphs = spec.Workload.graphs_per_point in
  (* Shared per-graph state: instance, schedules, horizon, normalizer. *)
  let prepared =
    Par.parallel_init ?jobs graphs (fun index ->
        let inst = Workload.instance spec ~master_seed ~granularity ~index in
        let seed = master_seed + (31 * index) in
        let s_ftsa = Ftsa.schedule ~seed inst ~eps in
        let s_mc = Mc_ftsa.schedule ~seed inst ~eps in
        let s_unrep = Ftsa.schedule ~seed inst ~eps:0 in
        let horizon = Schedule.latency_upper_bound s_ftsa in
        (inst, seed, s_ftsa, s_mc, s_unrep, horizon, Runner.mean_edge_comm inst))
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
    let trials = ref 0 in
    let ftsa_defeats = ref 0
    and mc_defeats = ref 0
    and mcr_defeats = ref 0
    and unr_defeats = ref 0 in
    let mcr_lat = ref 0. and mcr_done = ref 0 in
    let unr_tasks = ref 0. in
    List.iter
      (fun (inst, seed, s_ftsa, s_mc, s_unrep, horizon, norm) ->
        let m = Instance.n_procs inst in
        let rates = Array.make m (intensity /. horizon) in
        let delta = delta_factor *. horizon in
        let rng = Rng.create ~seed:(seed + 13) in
        for _ = 1 to scenarios_per_graph do
          incr trials;
          let fail_times = Scenario.exponential rng ~rates in
          let defeated r = r.Esim.latency = None in
          if defeated (Esim.run s_ftsa ~fail_times) then
            incr ftsa_defeats;
          if defeated (Esim.run s_mc ~fail_times) then incr mc_defeats;
          let o_mc = Recovery.run ~delta s_mc ~fail_times in
          (match o_mc.Recovery.result.Esim.latency with
          | Some l ->
              incr mcr_done;
              mcr_lat := !mcr_lat +. (l /. norm)
          | None -> incr mcr_defeats);
          let o_un = Recovery.run ~delta s_unrep ~fail_times in
          if o_un.Recovery.result.Esim.latency = None then
            incr unr_defeats;
          let d = o_un.Recovery.degraded in
          unr_tasks :=
            !unr_tasks
            +. float_of_int d.Metrics.completed_tasks
               /. float_of_int d.Metrics.total_tasks
        done)
      prepared;
    let rate n = float_of_int !n /. float_of_int !trials in
    [
      Printf.sprintf "%.2f" intensity;
      Printf.sprintf "%.2f" delta_factor;
      fmt3 (rate ftsa_defeats);
      fmt3 (rate mc_defeats);
      fmt3 (rate mcr_defeats);
      fmt3 (rate unr_defeats);
      (if !mcr_done = 0 then "-"
       else fmt3 (!mcr_lat /. float_of_int !mcr_done));
      fmt_pct (100. *. !unr_tasks /. float_of_int !trials);
    ]
  in
  let combos =
    List.concat_map
      (fun intensity ->
        List.map (fun delta_factor -> (intensity, delta_factor)) delta_factors)
      intensities
  in
  List.iter (Table.add_row campaign)
    (Par.parallel_map ?jobs campaign_row combos);
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
    let trials = ref 0 in
    let mc_defeats = ref 0 and mcr_defeats = ref 0 in
    let mcr_lat = ref 0. and mcr_done = ref 0 in
    let injections = ref 0 in
    List.iter
      (fun (inst, seed, _s_ftsa, s_mc, _s_unrep, horizon, norm) ->
        let m = Instance.n_procs inst in
        let delta = delta_factor *. horizon in
        let rng = Rng.create ~seed:(seed + 29) in
        for _ = 1 to scenarios_per_graph do
          incr trials;
          let timed = Scenario.random_timed rng ~m ~count:eps ~horizon in
          if (Esim.run_timed s_mc timed).Esim.latency = None then
            incr mc_defeats;
          let o = Recovery.run_timed ~delta s_mc timed in
          injections := !injections + o.Recovery.injections;
          match o.Recovery.result.Esim.latency with
          | Some l ->
              incr mcr_done;
              mcr_lat := !mcr_lat +. (l /. norm)
          | None -> incr mcr_defeats
        done)
      prepared;
    [
      Printf.sprintf "%.2f" delta_factor;
      fmt3 (float_of_int !mc_defeats /. float_of_int !trials);
      fmt3 (float_of_int !mcr_defeats /. float_of_int !trials);
      (if !mcr_done = 0 then "-"
       else fmt3 (!mcr_lat /. float_of_int !mcr_done));
      Printf.sprintf "%.1f" (float_of_int !injections /. float_of_int !trials);
    ]
  in
  List.iter (Table.add_row exact_eps)
    (Par.parallel_map ?jobs exact_eps_row delta_factors);
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
    ?(losses = [ 0.02; 0.05; 0.1; 0.2; 0.4 ]) ?(retries = 3) ?jobs () =
  let module Esim = Ftsched_sim.Event_sim in
  let module Scenario = Ftsched_sim.Scenario in
  let module Recovery = Ftsched_recovery.Recovery in
  let module Metrics = Ftsched_schedule.Metrics in
  let granularity = 1.0 in
  let graphs = spec.Workload.graphs_per_point in
  let prepared =
    Par.parallel_init ?jobs graphs (fun index ->
        let inst = Workload.instance spec ~master_seed ~granularity ~index in
        let seed = master_seed + (31 * index) in
        let s_ftsa = Ftsa.schedule ~seed inst ~eps in
        let s_mc = Mc_ftsa.schedule ~seed inst ~eps in
        (inst, seed, s_ftsa, s_mc, Runner.mean_edge_comm inst))
  in
  let first_finish_of (r : Esim.result) t =
    Array.fold_left
      (fun best o ->
        match o with
        | Esim.Completed { finish; _ } -> Float.min best finish
        | Esim.Lost -> best)
      infinity r.Esim.outcomes.(t)
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
    let trials = ref 0 in
    let ftsa_nort = ref 0
    and mc_nort = ref 0
    and ftsa_rt = ref 0
    and mc_rt = ref 0
    and mcr_defeats = ref 0 in
    let mc_tasks = ref 0. in
    let retrans = ref 0 in
    let mcr_lat = ref 0. and mcr_done = ref 0 in
    List.iter
      (fun (inst, seed, s_ftsa, s_mc, norm) ->
        let m = Instance.n_procs inst in
        let fail_times = Array.make m infinity in
        let g = Instance.dag inst in
        for k = 1 to scenarios_per_graph do
          incr trials;
          (* The same fault seed across variants pairs the comparison;
             the draws still diverge with the message count. *)
          let fseed = seed + (101 * k) in
          let no_rt = Scenario.lossy ~loss ~retries:0 ~seed:fseed () in
          let rt = Scenario.lossy ~loss ~retries ~seed:fseed () in
          let defeated (r : Esim.result) = r.Esim.latency = None in
          if defeated (Esim.run ~faults:no_rt s_ftsa ~fail_times) then
            incr ftsa_nort;
          let r_mc = Esim.run ~faults:no_rt s_mc ~fail_times in
          if defeated r_mc then incr mc_nort;
          let d =
            Metrics.degraded_of_run g ~first_finish:(first_finish_of r_mc)
          in
          mc_tasks :=
            !mc_tasks
            +. float_of_int d.Metrics.completed_tasks
               /. float_of_int d.Metrics.total_tasks;
          if defeated (Esim.run ~faults:rt s_ftsa ~fail_times) then
            incr ftsa_rt;
          let r_mc_rt = Esim.run ~faults:rt s_mc ~fail_times in
          if defeated r_mc_rt then incr mc_rt;
          retrans := !retrans + r_mc_rt.Esim.retransmissions;
          let o = Recovery.run ~faults:rt s_mc ~fail_times in
          match o.Recovery.result.Esim.latency with
          | Some l ->
              incr mcr_done;
              mcr_lat := !mcr_lat +. (l /. norm)
          | None -> incr mcr_defeats
        done)
      prepared;
    let rate n = float_of_int !n /. float_of_int !trials in
    [
      Printf.sprintf "%.2f" loss;
      fmt3 (rate ftsa_nort);
      fmt3 (rate mc_nort);
      fmt_pct (100. *. !mc_tasks /. float_of_int !trials);
      fmt3 (rate ftsa_rt);
      fmt3 (rate mc_rt);
      Printf.sprintf "%.1f" (float_of_int !retrans /. float_of_int !trials);
      fmt3 (rate mcr_defeats);
      (if !mcr_done = 0 then "-"
       else fmt3 (!mcr_lat /. float_of_int !mcr_done));
    ]
  in
  List.iter (Table.add_row table) (Par.parallel_map ?jobs loss_row losses);
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

let time_once f =
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (f ()));
  Sys.time () -. t0

let table1 ?(sizes = [ 100; 500; 1000 ]) ?(m = 50) ?(eps = 5) ?(seed = 1)
    () =
  let table =
    Table.create ~columns:[ "tasks"; "FTSA (s)"; "MC-FTSA (s)"; "FTBAR (s)" ]
  in
  List.iter
    (fun n_tasks ->
      let rng = Rng.create ~seed:(seed + n_tasks) in
      let dag =
        Gen.layered rng ~n_tasks ~volume:(Gen.Uniform_volume (50., 150.)) ()
      in
      let platform = Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 () in
      let inst = Instance.random_exec rng ~dag ~platform () in
      let t_ftsa = time_once (fun () -> Ftsa.schedule ~seed inst ~eps) in
      let t_mc = time_once (fun () -> Mc_ftsa.schedule ~seed inst ~eps) in
      let t_ftbar = time_once (fun () -> Ftbar.schedule ~seed inst ~npf:eps) in
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
    ?(rates = [ 0.3; 0.6; 1.0 ]) ?(crash_rates = [ 0.; 0.05; 0.15 ]) ?jobs ()
    =
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
      Par.parallel_init ?jobs seeds_per_point (fun i ->
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

let tournament_matrix ?(master_seed = 2008) ?(pairs = 12) ?(iters = 120)
    ?jobs () =
  let module T = Ftsched_tournament.Tournament in
  let r = T.campaign ?jobs ~pairs ~iters ~seed:master_seed () in
  T.matrix_table r

(* Benchmark & figure-regeneration harness.

   Usage: dune exec bench/main.exe [-- target ...] [-j N]

   Targets: fig1 fig2 fig3 fig4 table1 claims contention redundancy procs
   rftsa reliability recovery linkloss adversary micro kernel serve par
   scale sim smoke all (default: all; "smoke" is a CI-sized sanity pass over
   the hot simulation paths and is not part of "all"; "par" measures the
   Domain pool's wall-clock speedup and checks digest equality vs
   jobs=1, and additionally *asserts* speedup >= 1 when combined with
   "smoke"; "serve" — also outside "all" — measures daemon round-trip
   latency cold vs LRU-cached and writes BENCH_SERVE.json, path
   overridable with FTSCHED_BENCH_SERVE_JSON; "scale" — also outside
   "all" — runs FTSA on 10^4–10^5-task DAGs, writes BENCH_SCALE.json
   (FTSCHED_BENCH_SCALE_JSON) and, with "smoke", asserts the v=10^4
   layered case stays under 10 s and the parallel batch does not regress;
   "sim" — also outside "all" — races the flat-array event engine against
   the frozen pairing-heap reference and the warm-start workspaces
   against cold calls, writes BENCH_SIM.json (FTSCHED_BENCH_SIM_JSON),
   asserts result equality unconditionally and, with "smoke", that every
   warm loop is at least as fast as its cold twin).
   By default the figure sweeps use the reduced "quick" workload (8 graphs
   per point) so the whole harness finishes in a couple of minutes; set
   FTSCHED_FULL=1 to run the paper-scale workload (60 graphs per point and
   the full Table-1 sizes), FTSCHED_CSV=<dir> to archive every table as
   CSV, and FTSCHED_PLOTS=<dir> to emit gnuplot scripts per figure.
   -j N (or FTSCHED_JOBS) pins the worker-domain count for the parallel
   sweeps; every table is bit-identical for any N.  The "kernel" and
   "par" targets additionally write machine-readable BENCH_PAR.json
   (per-target wall-clock, speedup vs jobs=1, worker count; path
   overridable with FTSCHED_BENCH_JSON) so the perf trajectory is
   tracked across PRs. *)

module Table = Ftsched_util.Table
module Workload = Ftsched_exp.Workload
module Figures = Ftsched_exp.Figures
module Par = Ftsched_par.Par

let full = Sys.getenv_opt "FTSCHED_FULL" = Some "1"
let spec = if full then Workload.paper else Workload.quick
let csv_dir = Sys.getenv_opt "FTSCHED_CSV"
let plots_dir = Sys.getenv_opt "FTSCHED_PLOTS"

(* ------------------------------------------------------------------ *)
(* BENCH_PAR.json accumulator: the "kernel" and "par" targets append
   entries; the file is written at exit iff any entry was recorded. *)

type json_entry = {
  target : string;
  wall_ms : float;  (** wall-clock of the jobs=N (or only) run *)
  jobs1_ms : float option;  (** wall-clock of the jobs=1 reference run *)
}

let json_entries : json_entry list ref = ref []

let record_entry ?jobs1_ms target wall_ms =
  json_entries := { target; wall_ms; jobs1_ms } :: !json_entries

let write_bench_json () =
  match List.rev !json_entries with
  | [] -> ()
  | entries ->
      let path =
        Option.value ~default:"BENCH_PAR.json"
          (Sys.getenv_opt "FTSCHED_BENCH_JSON")
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "{\n  \"jobs\": %d,\n  \"targets\": [\n"
           (Par.default_jobs ()));
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf
            (Printf.sprintf "    {\"name\": %S, \"wall_ms\": %.3f" e.target
               e.wall_ms);
          (match e.jobs1_ms with
          | Some ref_ms ->
              Buffer.add_string buf
                (Printf.sprintf ", \"jobs1_ms\": %.3f, \"speedup\": %.3f"
                   ref_ms
                   (if e.wall_ms > 0. then ref_ms /. e.wall_ms else 1.))
          | None -> ());
          Buffer.add_string buf "}")
        entries;
      Buffer.add_string buf "\n  ]\n}\n";
      let oc = open_out path in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "[json] %s\n" path

let wall_clock f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, 1000. *. (Unix.gettimeofday () -. t0))

let section title = Printf.printf "\n=== %s ===\n%!" title

(* Print a table and, when FTSCHED_CSV=<dir> is set, also archive it as
   <dir>/<slug>.csv for external plotting. *)
let show slug table =
  Table.print table;
  (match csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (slug ^ ".csv") in
      Table.save_csv table ~path;
      Printf.printf "[csv] %s\n" path);
  match plots_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let basename = Filename.concat dir slug in
      Ftsched_util.Gnuplot.save table ~basename;
      Printf.printf "[gnuplot] %s.gp\n" basename

let run_figure ~id ~eps ~crash_counts =
  section
    (Printf.sprintf "Figure %s (eps=%d, %d graphs/point%s)" id eps
       spec.Workload.graphs_per_point
       (if full then ", paper scale" else ", quick"));
  let p = Figures.figure ~spec ~eps ~crash_counts () in
  Printf.printf "-- Figure %s(a): normalized latency bounds --\n" id;
  show (Printf.sprintf "fig%s_bounds" id) p.Figures.bounds;
  Printf.printf "-- Figure %s(b): normalized latency under crashes --\n" id;
  show (Printf.sprintf "fig%s_crash" id) p.Figures.crash;
  Printf.printf "-- Figure %s(c): average overhead (%%) --\n" id;
  show (Printf.sprintf "fig%s_overhead" id) p.Figures.overhead;
  Printf.printf
    "-- diagnostic (not in paper): MC-FTSA strict-policy defeat rate --\n";
  show (Printf.sprintf "fig%s_mc_defeats" id) p.Figures.mc_defeats

let run_figure4 () =
  section "Figure 4 (5 processors, eps=2, FTSA only)";
  let latency, overhead = Figures.figure4 ~spec () in
  Printf.printf "-- Figure 4(a): normalized latency --\n";
  show "fig4_latency" latency;
  Printf.printf "-- Figure 4(b): average overhead (%%) --\n";
  show "fig4_overhead" overhead

let run_contention () =
  section
    "Ablation (paper §7 future work): latency under communication contention";
  Printf.printf
    "Failure-free replay through the event simulator; the paper conjectures \
     MC-FTSA wins once links contend.\n";
  show "contention" (Figures.contention_ablation ~spec ~eps:2 ~ports:[ 1; 4 ] ())

let run_redundancy () =
  section "Ablation: redundant MC-FTSA (senders per input, eps=2, g=1.0)";
  Printf.printf
    "Strict-policy defeat rate vs message budget; senders=1 is the paper's \
     MC-FTSA, senders=eps+1 restores FTSA's fan-in.\n";
  show "redundancy" (Figures.redundancy_ablation ~spec ~eps:2 ())

let run_procs () =
  section "Ablation: platform-size sweep (eps=2, g=1.0)";
  Printf.printf
    "The full curve behind the paper's Figure-4 observation: on small \
     platforms the replication cost can no longer hide.\n";
  show "procs_sweep"
    (Figures.procs_sweep ~spec ~eps:2 ~procs:[ 5; 8; 12; 16; 20; 30 ] ())

let run_rftsa () =
  section "Ablation (paper §7 future work): reliability-aware R-FTSA (eps=2)";
  Printf.printf
    "Latency slack alpha vs mission reliability when every second processor \
     is 20x more failure-prone.\n";
  show "rftsa" (Figures.rftsa_ablation ~spec ~eps:2 ())

let run_reliability () =
  section "Ablation (paper §7 future work): schedule reliability, p_fail=0.1";
  Printf.printf
    "Probability the application completes when every processor fails \
     independently (m=%d).\n" spec.Workload.n_procs;
  show "reliability" (Figures.reliability_ablation ~spec ~p_fail:0.1 ())

let run_recovery () =
  section "Ablation A5: online failure detection and recovery (eps=2, g=1.0)";
  Printf.printf
    "Exponential fault-injection campaign; intensity is the expected number \
     of failures per processor over the static FTSA horizon, delta the \
     detection latency as a fraction of that horizon.\n";
  let p = Figures.recovery_ablation ~spec ~eps:2 () in
  Printf.printf "-- A5(a): campaign defeat rates and recovered latency --\n";
  show "recovery_campaign" p.Figures.campaign;
  Printf.printf
    "-- A5(b): exactly-eps failures (Finding 1 regime; recovery must reach \
     defeat rate 0) --\n";
  show "recovery_exact_eps" p.Figures.exact_eps

let run_linkloss () =
  section "Ablation A6: link failures and retransmission (eps=2, g=1.0)";
  Printf.printf
    "No processor dies; every inter-processor message is lost independently \
     with the row's probability. FTSA's (eps+1)^2 messaging vs MC-FTSA's \
     one-to-one plan, retransmission off/on, plus MC-FTSA under recovery.\n";
  show "linkloss" (Figures.link_loss_ablation ~spec ~eps:2 ())

let run_adversary () =
  section "Adversarial timed worst-case search (eps=2, g=1.0)";
  Printf.printf
    "Certified-or-empirical worst over death instants, vs the untimed \
     exhaustive worst; one FTSA and one MC-FTSA (strict) schedule per row.\n";
  let module Adversary = Ftsched_sim.Adversary in
  let table =
    Table.create
      ~columns:[ "algo"; "verdict"; "untimed worst"; "timed worst"; "evals" ]
  in
  let fmt_outcome = function
    | Adversary.Defeated -> "defeated"
    | Adversary.Latency l -> Printf.sprintf "%.1f" l
  in
  List.iter
    (fun (name, schedule) ->
      let inst = Workload.instance spec ~master_seed:2008 ~granularity:1.0 ~index:0 in
      let s = schedule inst in
      let r = Adversary.search ~links:1 s ~count:2 in
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
      ("ftsa", fun inst -> Ftsched_core.Ftsa.schedule inst ~eps:2);
      ("mc-ftsa", fun inst -> Ftsched_core.Mc_ftsa.schedule inst ~eps:2);
    ];
  show "adversary" table

(* CI-sized sanity pass: exercises the hot simulation paths (event engine
   with contention, the lossy channel with retransmission, recovery, the
   adversary search) on a 2-graph workload in a few seconds, so engine
   regressions are caught on every PR without paying for a full run. *)
let run_smoke () =
  section "Smoke (CI): hot simulation paths on a reduced workload";
  let spec2 = Workload.with_graphs_per_point spec 2 in
  show "smoke_contention"
    (Figures.contention_ablation ~spec:spec2 ~eps:2 ~ports:[ 1 ] ());
  show "smoke_linkloss"
    (Figures.link_loss_ablation ~spec:spec2 ~scenarios_per_graph:2 ~eps:2
       ~losses:[ 0.05; 0.3 ] ());
  let p =
    Figures.recovery_ablation ~spec:spec2 ~scenarios_per_graph:2 ~eps:2
      ~intensities:[ 0.15 ] ~delta_factors:[ 0.02 ] ()
  in
  show "smoke_recovery" p.Figures.campaign

let run_claims () =
  section "Self-check: the paper's qualitative claims as assertions";
  let verdicts = Ftsched_exp.Claims.verify ~spec () in
  show "claims" (Ftsched_exp.Claims.to_table verdicts);
  Printf.printf "claims verified: %d/%d\n"
    (List.length (List.filter (fun v -> v.Ftsched_exp.Claims.holds) verdicts))
    (List.length verdicts)

let run_table1 () =
  let sizes = if full then Figures.paper_sizes else [ 100; 500; 1000 ] in
  section
    (Printf.sprintf "Table 1: running times (m=50, eps=5, sizes up to %d)"
       (List.fold_left max 0 sizes));
  show "table1" (Figures.table1 ~sizes ())

(* Run a list of bechamel tests and render the OLS estimates as a table.
   [record] additionally appends each estimate to BENCH_PAR.json. *)
let bechamel_report ?(record = false) ~slug tests =
  let open Bechamel in
  let open Toolkit in
  let cfg =
    Benchmark.cfg ~limit:200 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let table = Table.create ~columns:[ "benchmark"; "time/run (ms)"; "r2" ] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let res = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name o ->
          let ns =
            match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square o with Some r -> r | None -> nan
          in
          if record then record_entry (slug ^ ":" ^ name) (ns /. 1e6);
          Table.add_row table
            [ name; Printf.sprintf "%.3f" (ns /. 1e6); Printf.sprintf "%.4f" r2 ])
        res)
    tests;
  show slug table

(* Bechamel micro-benchmarks: per-call cost of each scheduler and of the
   hot substrate operations. *)
let run_micro () =
  section "Bechamel micro-benchmarks";
  let open Bechamel in
  let rng = Ftsched_util.Rng.create ~seed:11 in
  let dag = Ftsched_dag.Generators.layered rng ~n_tasks:100 () in
  let platform =
    Ftsched_platform.Platform.random rng ~m:20 ~delay_lo:0.5 ~delay_hi:1.0 ()
  in
  let inst = Ftsched_model.Instance.random_exec rng ~dag ~platform () in
  let s_ftsa = Ftsched_core.Ftsa.schedule inst ~eps:2 in
  let scenario = Ftsched_sim.Scenario.of_list [ 3; 7 ] in
  let tests =
    [
      Test.make ~name:"ftsa-eps2-v100"
        (Staged.stage (fun () -> Ftsched_core.Ftsa.schedule inst ~eps:2));
      Test.make ~name:"mc-ftsa-greedy-eps2-v100"
        (Staged.stage (fun () -> Ftsched_core.Mc_ftsa.schedule inst ~eps:2));
      Test.make ~name:"mc-ftsa-bottleneck-eps2-v100"
        (Staged.stage (fun () ->
             Ftsched_core.Mc_ftsa.schedule
               ~strategy:Ftsched_core.Mc_ftsa.Bottleneck inst ~eps:2));
      Test.make ~name:"ftbar-npf2-v100"
        (Staged.stage (fun () -> Ftsched_baseline.Ftbar.schedule inst ~npf:2));
      Test.make ~name:"heft-v100"
        (Staged.stage (fun () -> Ftsched_baseline.Heft.schedule inst));
      Test.make ~name:"peft-v100"
        (Staged.stage (fun () -> Ftsched_baseline.Peft.schedule inst));
      Test.make ~name:"crash-exec-replay"
        (Staged.stage (fun () ->
             Ftsched_sim.Crash_exec.run ~policy:Ftsched_sim.Crash_exec.Reroute
               s_ftsa scenario));
      Test.make ~name:"event-sim-replay"
        (Staged.stage (fun () ->
             Ftsched_sim.Event_sim.run_crash s_ftsa scenario));
      Test.make ~name:"bottom-levels-v100"
        (Staged.stage (fun () -> Ftsched_model.Levels.bottom_levels inst));
    ]
  in
  bechamel_report ~slug:"micro" tests

(* The pre-kernel engine's equation-(1)/(3) evaluation, kept as a timing
   reference: for every candidate processor it re-reduces every
   predecessor's replica row, where lib/kernel hoists that reduction into
   per-target-processor arrival bounds filled once per task.  Same
   priority heap, same selection and commit — only the evaluation
   differs. *)
module Unhoisted_ftsa = struct
  module Dag = Ftsched_dag.Dag
  module Platform = Ftsched_platform.Platform
  module Instance = Ftsched_model.Instance
  module Levels = Ftsched_model.Levels
  module Rng = Ftsched_util.Rng
  module Alpha = Ftsched_ds.Bin_heap

  type committed = { proc : int; finish_opt : float; finish_pess : float }

  let schedule ?(seed = 0) inst ~eps =
    let rng = Rng.create ~seed in
    let g = Instance.dag inst in
    let pl = Instance.platform inst in
    let v = Dag.n_tasks g and m = Instance.n_procs inst in
    let bl = Levels.bottom_levels inst in
    let placed = Array.make v None in
    let ready_opt = Array.make m 0. and ready_pess = Array.make m 0. in
    let alpha = Alpha.create ~capacity:v () in
    let replicas_of t = Option.get placed.(t) in
    let push_free t =
      let tl =
        List.fold_left
          (fun acc (t', vol) ->
            let earliest =
              Array.fold_left
                (fun b c ->
                  Float.min b
                    (c.finish_opt +. (vol *. Platform.max_delay_from pl c.proc)))
                infinity (replicas_of t')
            in
            Float.max acc earliest)
          0. (Dag.preds g t)
      in
      Alpha.push alpha ~prio:(tl +. bl.(t)) ~tie:(Rng.float_in rng 0. 1.)
        ~task:t
    in
    List.iter push_free (Dag.entries g);
    let remaining = Array.init v (fun t -> Dag.in_degree g t) in
    while not (Alpha.is_empty alpha) do
      let t = Alpha.max_task alpha in
      Alpha.drop_max alpha;
      let estimate p =
        (* the unhoisted inner loops: preds × replicas per processor *)
        let in_opt = ref 0. and in_pess = ref 0. in
        List.iter
          (fun (t', vol) ->
            let e_opt = ref infinity and e_pess = ref 0. in
            Array.iter
              (fun c ->
                let w = vol *. Platform.delay pl c.proc p in
                let a = c.finish_opt +. w and ap = c.finish_pess +. w in
                if a < !e_opt then e_opt := a;
                if ap > !e_pess then e_pess := ap)
              (replicas_of t');
            if !e_opt > !in_opt then in_opt := !e_opt;
            if !e_pess > !in_pess then in_pess := !e_pess)
          (Dag.preds g t);
        let e = Instance.exec inst t p in
        ( e +. Float.max !in_opt ready_opt.(p),
          e +. Float.max !in_pess ready_pess.(p) )
      in
      let cand = Array.init m (fun p -> (p, estimate p)) in
      Array.sort
        (fun (pa, (fa, _)) (pb, (fb, _)) ->
          match compare fa fb with 0 -> compare pa pb | c -> c)
        cand;
      let committed =
        Array.map
          (fun (p, (f_opt, f_pess)) ->
            { proc = p; finish_opt = f_opt; finish_pess = f_pess })
          (Array.sub cand 0 (eps + 1))
      in
      placed.(t) <- Some committed;
      Array.iter
        (fun c ->
          if c.finish_opt > ready_opt.(c.proc) then
            ready_opt.(c.proc) <- c.finish_opt;
          if c.finish_pess > ready_pess.(c.proc) then
            ready_pess.(c.proc) <- c.finish_pess)
        committed;
      List.iter
        (fun (t', _) ->
          remaining.(t') <- remaining.(t') - 1;
          if remaining.(t') = 0 then push_free t')
        (Dag.succs g t)
    done;
    Array.fold_left Float.max 0. ready_pess
end

(* Kernel benchmarks: the hoisted equation-(1)/(3) evaluation against the
   pre-kernel per-processor reduction on a large dense graph, and the
   shared Proc_state timeline against the list-based insertion the
   baselines used before the refactor. *)
let run_kernel () =
  section "Kernel: hoisted eq-(1) evaluation & shared timeline";
  let open Bechamel in
  let rng = Ftsched_util.Rng.create ~seed:7 in
  let dag = Ftsched_dag.Generators.layered rng ~n_tasks:800 () in
  let platform =
    Ftsched_platform.Platform.random rng ~m:50 ~delay_lo:0.5 ~delay_hi:1.0 ()
  in
  let inst = Ftsched_model.Instance.random_exec rng ~dag ~platform () in
  let n_slots = 2000 in
  (* deterministic pseudo-random ready times, same for both timelines *)
  let ready_of i = float_of_int (i * 7919 mod 10007) in
  let module Ps = Ftsched_kernel.Proc_state in
  let tests =
    [
      Test.make ~name:"ftsa-kernel-hoisted-v800-m50-eps2"
        (Staged.stage (fun () -> Ftsched_core.Ftsa.schedule inst ~eps:2));
      Test.make ~name:"ftsa-unhoisted-v800-m50-eps2"
        (Staged.stage (fun () -> Unhoisted_ftsa.schedule inst ~eps:2));
      Test.make ~name:"proc-state-gap+insert-2000"
        (Staged.stage (fun () ->
             let ps = Ps.create ~m:1 ~insertion:true in
             let acc = ref 0. in
             for i = 0 to n_slots - 1 do
               let start =
                 Ps.earliest_gap ps 0 ~ready:(ready_of i) ~duration:3.5
               in
               Ps.commit_slot ps 0 ~start ~finish:(start +. 3.5)
                 ~pess_finish:(start +. 3.5);
               acc := !acc +. start
             done;
             !acc));
      Test.make ~name:"list-gap+insert-2000"
        (Staged.stage (fun () ->
             (* the per-baseline list timeline replaced by Proc_state *)
             let slots = ref [] in
             let earliest_gap ~ready ~duration =
               let rec scan cursor = function
                 | [] -> cursor
                 | (s, f) :: rest ->
                     if cursor +. duration <= s then cursor
                     else scan (Float.max cursor f) rest
               in
               scan ready !slots
             in
             let insert_slot slot =
               let rec go = function
                 | [] -> [ slot ]
                 | ((s, _) :: _ as l) when fst slot < s -> slot :: l
                 | hd :: tl -> hd :: go tl
               in
               slots := go !slots
             in
             let acc = ref 0. in
             for i = 0 to n_slots - 1 do
               let start = earliest_gap ~ready:(ready_of i) ~duration:3.5 in
               insert_slot (start, start +. 3.5);
               acc := !acc +. start
             done;
             !acc));
    ]
  in
  bechamel_report ~record:true ~slug:"kernel" tests

(* The Domain-pool target: the §6 quick-spec campaign and the adversary
   smoke search, each run at jobs=1 and at the configured worker count.
   Digest equality between the two runs is always asserted (the pool's
   core guarantee); with [strict] (the CI "par smoke" job) a speedup
   below 1 — a parallelization regression — also fails the run. *)
let run_par ~strict () =
  let jobs = Par.default_jobs () in
  section
    (Printf.sprintf "Par: deterministic Domain pool (jobs=%d vs jobs=1)" jobs);
  let digest_panels (p : Figures.panels) =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            [
              Table.to_csv p.Figures.bounds; Table.to_csv p.Figures.crash;
              Table.to_csv p.Figures.overhead;
              Table.to_csv p.Figures.mc_defeats;
            ]))
  in
  let fig jobs () = Figures.figure ~spec ~eps:2 ~crash_counts:[ 0; 1; 2 ] ~jobs () in
  let p1, fig_ms1 = wall_clock (fig 1) in
  let pn, fig_msn = wall_clock (fig jobs) in
  let fig_d1 = digest_panels p1 and fig_dn = digest_panels pn in
  let module Adversary = Ftsched_sim.Adversary in
  let inst =
    Workload.instance spec ~master_seed:2008 ~granularity:1.0 ~index:0
  in
  let s = Ftsched_core.Ftsa.schedule ~seed:2008 inst ~eps:2 in
  let adv jobs () = Adversary.search ~links:1 ~jobs s ~count:2 in
  let adv_digest (r : Adversary.report) =
    Digest.to_hex
      (Digest.string
         (Format.asprintf "%a|%a|%d" Adversary.pp_outcome r.Adversary.worst
            Adversary.pp_witness r.Adversary.witness r.Adversary.evaluations))
  in
  let r1, adv_ms1 = wall_clock (adv 1) in
  let rn, adv_msn = wall_clock (adv jobs) in
  let adv_d1 = adv_digest r1 and adv_dn = adv_digest rn in
  record_entry ~jobs1_ms:fig_ms1 "par:figure-eps2-campaign" fig_msn;
  record_entry ~jobs1_ms:adv_ms1 "par:adversary-smoke" adv_msn;
  let table =
    Table.create
      ~columns:
        [
          "target"; "jobs=1 (ms)"; Printf.sprintf "jobs=%d (ms)" jobs;
          "speedup"; "digests equal";
        ]
  in
  let rows =
    [
      ("figure-eps2-campaign", fig_ms1, fig_msn, fig_d1 = fig_dn);
      ("adversary-smoke", adv_ms1, adv_msn, adv_d1 = adv_dn);
    ]
  in
  List.iter
    (fun (name, ms1, msn, eq) ->
      Table.add_row table
        [
          name;
          Printf.sprintf "%.1f" ms1;
          Printf.sprintf "%.1f" msn;
          Printf.sprintf "%.2f" (if msn > 0. then ms1 /. msn else 1.);
          string_of_bool eq;
        ])
    rows;
  show "par" table;
  List.iter
    (fun (name, ms1, msn, eq) ->
      if not eq then
        failwith
          (Printf.sprintf
             "bench par: %s output differs between jobs=1 and jobs=%d" name
             jobs);
      if strict && jobs > 1 && msn > ms1 then
        failwith
          (Printf.sprintf
             "bench par: %s regressed under parallelism (jobs=%d %.1fms > \
              jobs=1 %.1fms)"
             name jobs msn ms1))
    rows

(* ------------------------------------------------------------------ *)
(* "scale" target: the flat-array hot path on 10^4–10^5-task DAGs.
   One FTSA run (m=50, eps=2) per (family, size) case measuring
   wall-clock, throughput and allocation, plus a parallel batch of
   mid-size instances scheduled at jobs=1 and at the configured worker
   count with digest equality asserted.  Results go to BENCH_SCALE.json
   (path overridable with FTSCHED_BENCH_SCALE_JSON).  With [strict]
   (the CI "smoke scale" job) the v=10^4 layered case must finish
   within 10 s sequentially and the batch speedup must be >= 1. *)

type scale_row = {
  family : string;
  tasks : int;
  edges : int;
  build_ms : float;
  schedule_ms : float;
  tasks_per_s : float;
  alloc_mwords : float;  (** words allocated during the run, in 1e6 *)
  peak_mwords : float;  (** [Gc.top_heap_words] after the run, in 1e6 *)
}

let write_scale_json rows ~batch_name ~jobs1_ms ~jobsn_ms ~digests_equal =
  let path =
    Option.value ~default:"BENCH_SCALE.json"
      (Sys.getenv_opt "FTSCHED_BENCH_SCALE_JSON")
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\n  \"jobs\": %d,\n  \"full\": %b,\n  \"m\": 50,\n  \"eps\": 2,\n\
       \  \"cases\": [\n"
       (Par.default_jobs ()) full);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"family\": %S, \"tasks\": %d, \"edges\": %d, \"build_ms\": \
            %.1f, \"schedule_ms\": %.1f, \"tasks_per_s\": %.0f, \
            \"alloc_mwords\": %.2f, \"peak_mwords\": %.2f}"
           r.family r.tasks r.edges r.build_ms r.schedule_ms r.tasks_per_s
           r.alloc_mwords r.peak_mwords))
    rows;
  Buffer.add_string buf
    (Printf.sprintf
       "\n  ],\n  \"parallel_batch\": {\"name\": %S, \"jobs1_ms\": %.1f, \
        \"jobs%d_ms\": %.1f, \"speedup\": %.3f, \"digests_equal\": %b}\n}\n"
       batch_name jobs1_ms (Par.default_jobs ()) jobsn_ms
       (if jobsn_ms > 0. then jobs1_ms /. jobsn_ms else 1.)
       digests_equal);
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[json] %s\n" path

let run_scale ~strict () =
  let jobs = Par.default_jobs () in
  section
    (Printf.sprintf "Scale: FTSA on large DAGs (m=50, eps=2, jobs=%d)" jobs);
  let module G = Ftsched_dag.Generators in
  let layered v =
    ("layered", v, fun rng -> G.layered rng ~n_tasks:v ())
  in
  let forkjoin v =
    ( "fork-join",
      v,
      fun rng ->
        let width = int_of_float (sqrt (float_of_int v)) in
        G.fork_join rng ~stages:(Int.max 1 (v / (width + 2))) ~width () )
  in
  let pegasus v =
    ("pegasus", v, fun rng -> G.pegasus rng ~n_tasks:v ())
  in
  let cases =
    [ layered 2_000; layered 10_000; forkjoin 10_000; pegasus 10_000;
      pegasus 100_000 ]
    @ (if full then [ layered 20_000; forkjoin 50_000 ] else [])
  in
  let rows =
    List.map
      (fun (family, v, gen) ->
        let rng = Ftsched_util.Rng.create ~seed:(2008 + v) in
        let dag, build_ms = wall_clock (fun () -> gen rng) in
        let platform =
          Ftsched_platform.Platform.random rng ~m:50 ~delay_lo:0.5
            ~delay_hi:1.0 ()
        in
        let inst =
          Ftsched_model.Instance.random_exec rng ~dag ~platform ()
        in
        Gc.full_major ();
        let g0 = Gc.quick_stat () in
        let s, schedule_ms =
          wall_clock (fun () ->
              Sys.opaque_identity (Ftsched_core.Ftsa.schedule inst ~eps:2))
        in
        ignore s;
        let g1 = Gc.quick_stat () in
        let alloc_words =
          g1.Gc.minor_words -. g0.Gc.minor_words
          +. (g1.Gc.major_words -. g0.Gc.major_words)
          -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
        in
        let tasks = Ftsched_dag.Dag.n_tasks dag in
        {
          family;
          tasks;
          edges = Ftsched_dag.Dag.n_edges dag;
          build_ms;
          schedule_ms;
          tasks_per_s = 1000. *. float_of_int tasks /. schedule_ms;
          alloc_mwords = alloc_words /. 1e6;
          peak_mwords = float_of_int g1.Gc.top_heap_words /. 1e6;
        })
      cases
  in
  let table =
    Table.create
      ~columns:
        [
          "family"; "tasks"; "edges"; "build (ms)"; "schedule (ms)";
          "tasks/s"; "alloc (MW)"; "peak heap (MW)";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.family; string_of_int r.tasks; string_of_int r.edges;
          Printf.sprintf "%.1f" r.build_ms;
          Printf.sprintf "%.1f" r.schedule_ms;
          Printf.sprintf "%.0f" r.tasks_per_s;
          Printf.sprintf "%.2f" r.alloc_mwords;
          Printf.sprintf "%.2f" r.peak_mwords;
        ])
    rows;
  show "scale" table;
  (* parallel batch: independent mid-size instances over the pool *)
  let batch = 8 in
  let batch_name = Printf.sprintf "pegasus-v2000-x%d" batch in
  let insts =
    List.init batch (fun i ->
        let rng = Ftsched_util.Rng.create ~seed:(2008 + (31 * i)) in
        let dag = G.pegasus rng ~n_tasks:2000 () in
        let platform =
          Ftsched_platform.Platform.random rng ~m:20 ~delay_lo:0.5
            ~delay_hi:1.0 ()
        in
        Ftsched_model.Instance.random_exec rng ~dag ~platform ())
  in
  let digest schedules =
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            (List.map Ftsched_schedule.Serialize.schedule_to_string schedules)))
  in
  let batch_run j () =
    Par.parallel_map ~jobs:j
      (fun inst -> Ftsched_core.Ftsa.schedule inst ~eps:2)
      insts
  in
  let s1, batch_ms1 = wall_clock (batch_run 1) in
  let sn, batch_msn = wall_clock (batch_run jobs) in
  let d1 = digest s1 and dn = digest sn in
  let btable =
    Table.create
      ~columns:
        [
          "batch"; "jobs=1 (ms)"; Printf.sprintf "jobs=%d (ms)" jobs;
          "speedup"; "digests equal";
        ]
  in
  Table.add_row btable
    [
      batch_name;
      Printf.sprintf "%.1f" batch_ms1;
      Printf.sprintf "%.1f" batch_msn;
      Printf.sprintf "%.2f"
        (if batch_msn > 0. then batch_ms1 /. batch_msn else 1.);
      string_of_bool (d1 = dn);
    ];
  show "scale_batch" btable;
  write_scale_json rows ~batch_name ~jobs1_ms:batch_ms1 ~jobsn_ms:batch_msn
    ~digests_equal:(d1 = dn);
  if d1 <> dn then
    failwith
      (Printf.sprintf
         "bench scale: batch output differs between jobs=1 and jobs=%d" jobs);
  if strict then begin
    List.iter
      (fun r ->
        if r.family = "layered" && r.tasks = 10_000 && r.schedule_ms > 10_000.
        then
          failwith
            (Printf.sprintf
               "bench scale: layered v=10^4 took %.1f ms sequentially \
                (budget 10 s)"
               r.schedule_ms))
      rows;
    if jobs > 1 && batch_msn > batch_ms1 then
      failwith
        (Printf.sprintf
           "bench scale: batch regressed under parallelism (jobs=%d %.1fms > \
            jobs=1 %.1fms)"
           jobs batch_msn batch_ms1)
  end

(* ------------------------------------------------------------------ *)
(* "serve" target: end-to-end latency and throughput of the framed
   scheduling daemon ([lib/serve]), measured in-process over a unix
   socket.  Three figures: cold requests (distinct payloads computed on
   the Domain pool), cached repeats of one payload (LRU hits, asserted
   byte-identical to the cold response), and requests/second for each.
   Results go to BENCH_SERVE.json (path overridable with
   FTSCHED_BENCH_SERVE_JSON); the accounting oracle is checked on the
   final metrics before the numbers are trusted. *)

module Serve = Ftsched_serve.Server
module Serve_proto = Ftsched_serve.Protocol

let serve_send_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | n -> go (off + n)
  in
  go 0

let serve_read_response fd reader =
  let buf = Bytes.create 4096 in
  let rec go () =
    match Serve_proto.reader_next reader with
    | `Frame p -> p
    | `Error e ->
        failwith
          (Format.asprintf "bench serve: protocol error %a"
             Serve_proto.pp_error e)
    | `More -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | 0 -> failwith "bench serve: server closed the connection"
        | n ->
            Serve_proto.reader_feed reader buf n;
            go ())
  in
  go ()

let run_serve () =
  section "serve: daemon round-trip latency";
  let sock = Filename.temp_file "ftsched-bench-" ".sock" in
  Sys.remove sock;
  let server =
    Serve.create
      ~config:{ Serve.default_config with Serve.capacity = 128 }
      (Serve.Unix_socket sock)
  in
  let final = ref None in
  let th = Thread.create (fun () -> final := Some (Serve.serve server)) () in
  let cold_n = 32 and cached_n = 256 in
  let spec =
    {
      Workload.quick with
      Workload.n_procs = 6;
      tasks_lo = 40;
      tasks_hi = 40;
      graphs_per_point = 1;
    }
  in
  let payload i =
    let inst =
      Workload.instance spec ~master_seed:(7 + i) ~granularity:1.0 ~index:0
    in
    Printf.sprintf "schedule ftsa 1 %d %h\n%s" i infinity
      (Ftsched_schedule.Serialize.instance_to_string inst)
  in
  let cold_ms, cached_ms =
    Fun.protect
      ~finally:(fun () ->
        Serve.stop server;
        Thread.join th;
        try Sys.remove sock with Sys_error _ -> ())
    @@ fun () ->
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
    @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let reader = Serve_proto.create_reader () in
    let roundtrip p =
      serve_send_all fd (Serve_proto.encode_frame p);
      let resp = serve_read_response fd reader in
      (match Serve_proto.classify_response resp with
      | `Ok _ -> ()
      | `Error (code, detail) ->
          failwith
            (Printf.sprintf "bench serve: error %s (%s)" code detail)
      | `Junk -> failwith "bench serve: junk response");
      resp
    in
    let payloads = Array.init cold_n payload in
    let (), cold_ms =
      wall_clock (fun () -> Array.iter (fun p -> ignore (roundtrip p)) payloads)
    in
    (* prime the cache, then time byte-identical repeats *)
    let hot = payload 0 in
    let reference = roundtrip hot in
    let (), cached_ms =
      wall_clock (fun () ->
          for _ = 1 to cached_n do
            if not (String.equal (roundtrip hot) reference) then
              failwith "bench serve: cached response differs from cold"
          done)
    in
    (cold_ms, cached_ms)
  in
  (match !final with
  | None -> failwith "bench serve: server thread produced no metrics"
  | Some m -> (
      match Serve.check_accounting m with
      | [] -> ()
      | problems ->
          failwith
            ("bench serve: accounting oracle violated: "
            ^ String.concat "; " problems)));
  let per_req total n = total /. float_of_int n in
  let rps total n = 1000. *. float_of_int n /. total in
  let table =
    Table.create ~columns:[ "path"; "requests"; "ms/request"; "requests/s" ]
  in
  Table.add_row table
    [
      "cold (pool)"; string_of_int cold_n;
      Printf.sprintf "%.3f" (per_req cold_ms cold_n);
      Printf.sprintf "%.0f" (rps cold_ms cold_n);
    ];
  Table.add_row table
    [
      "cached (LRU)"; string_of_int cached_n;
      Printf.sprintf "%.3f" (per_req cached_ms cached_n);
      Printf.sprintf "%.0f" (rps cached_ms cached_n);
    ];
  show "serve" table;
  let path =
    Option.value ~default:"BENCH_SERVE.json"
      (Sys.getenv_opt "FTSCHED_BENCH_SERVE_JSON")
  in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n\
    \  \"jobs\": %d,\n\
    \  \"cold\": {\"requests\": %d, \"ms_per_request\": %.3f, \
     \"requests_per_s\": %.1f},\n\
    \  \"cached\": {\"requests\": %d, \"ms_per_request\": %.3f, \
     \"requests_per_s\": %.1f},\n\
    \  \"cache_speedup\": %.2f\n\
     }\n"
    (Par.default_jobs ()) cold_n (per_req cold_ms cold_n) (rps cold_ms cold_n)
    cached_n
    (per_req cached_ms cached_n)
    (rps cached_ms cached_n)
    (per_req cold_ms cold_n /. Float.max 1e-9 (per_req cached_ms cached_n));
  close_out oc;
  Printf.printf "[json] %s\n" path

(* ------------------------------------------------------------------ *)
(* "sim" target: throughput of the flat-array event engine against the
   frozen pairing-heap reference ([lib/sim/event_sim_ref]) on one
   v=800/m=50/eps=2 schedule, across the hot scenarios the streaming
   runtime replays — fault-free, a single timed crash, loss + outage,
   and one-port contention — with structural equality of every result
   asserted before the numbers are trusted.  A second table measures the
   warm-start layer: the shadow-recovery loop (one Recovery.workspace
   across all m candidate crashes) and FTSA replanning (one
   Driver.workspace across repeated schedules) cold vs warm.  Results go
   to BENCH_SIM.json (path overridable with FTSCHED_BENCH_SIM_JSON).
   With [strict] (the CI "smoke sim" job) every warm-vs-cold speedup
   must be >= 1; result equality is asserted unconditionally. *)

type sim_row = {
  scenario : string;
  sim_events : int;
  ref_ms : float;  (** per-run wall-clock of the reference engine *)
  flat_ms : float;  (** per-run wall-clock of the flat-array engine *)
}

type warm_row = {
  warm_name : string;
  cold_ms : float;
  warm_ms : float;
}

let write_sim_json rows warms =
  let path =
    Option.value ~default:"BENCH_SIM.json"
      (Sys.getenv_opt "FTSCHED_BENCH_SIM_JSON")
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "{\n  \"v\": 800,\n  \"m\": 50,\n  \"eps\": 2,\n  \"engine\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"scenario\": %S, \"events\": %d, \"ref_ms\": %.3f, \
            \"flat_ms\": %.3f, \"ref_events_per_s\": %.0f, \
            \"flat_events_per_s\": %.0f, \"speedup\": %.2f}"
           r.scenario r.sim_events r.ref_ms r.flat_ms
           (1000. *. float_of_int r.sim_events /. r.ref_ms)
           (1000. *. float_of_int r.sim_events /. r.flat_ms)
           (r.ref_ms /. r.flat_ms)))
    rows;
  Buffer.add_string buf "\n  ],\n  \"warm_start\": [\n";
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"name\": %S, \"cold_ms\": %.3f, \"warm_ms\": %.3f, \
            \"speedup\": %.2f}"
           w.warm_name w.cold_ms w.warm_ms (w.cold_ms /. w.warm_ms)))
    warms;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out path in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "[json] %s\n" path

let run_sim ~strict () =
  let module Event_sim = Ftsched_sim.Event_sim in
  let module Event_sim_ref = Ftsched_oracle.Event_sim_ref in
  let module Scenario = Ftsched_sim.Scenario in
  let module Recovery = Ftsched_recovery.Recovery in
  section "Sim: flat-array engine vs pairing-heap reference (v=800, m=50, eps=2)";
  let v = 800 and m = 50 and eps = 2 in
  let rng = Ftsched_util.Rng.create ~seed:2008 in
  let dag = Ftsched_dag.Generators.layered rng ~n_tasks:v () in
  let platform =
    Ftsched_platform.Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 ()
  in
  let inst = Ftsched_model.Instance.random_exec rng ~dag ~platform () in
  let s = Ftsched_core.Ftsa.schedule ~seed:2008 inst ~eps in
  let no_fail = Array.make m infinity in
  let horizon =
    match (Event_sim.run s ~fail_times:no_fail).Event_sim.latency with
    | Some l -> l
    | None -> failwith "bench sim: fault-free run defeated"
  in
  let crash =
    let ft = Array.make m infinity in
    ft.(7) <- 0.25 *. horizon;
    ft
  in
  let faults =
    Scenario.lossy ~loss:0.05
      ~outages:
        [
          Scenario.outage ~src:0 ~dst:1 ~from_t:(0.1 *. horizon)
            ~until_t:(0.4 *. horizon);
        ]
      ~retries:3 ~seed:42 ()
  in
  let scenarios =
    [
      ( "fault-free",
        (fun () -> Event_sim.run s ~fail_times:no_fail),
        fun () -> Event_sim_ref.run s ~fail_times:no_fail );
      ( "single-crash",
        (fun () -> Event_sim.run s ~fail_times:crash),
        fun () -> Event_sim_ref.run s ~fail_times:crash );
      ( "loss+outage",
        (fun () -> Event_sim.run ~faults s ~fail_times:crash),
        fun () -> Event_sim_ref.run ~faults s ~fail_times:crash );
      ( "one-port",
        (fun () ->
          Event_sim.run ~network:(Event_sim.Sender_ports 1) s
            ~fail_times:no_fail),
        fun () ->
          Event_sim_ref.run ~network:(Event_sim.Sender_ports 1) s
            ~fail_times:no_fail );
    ]
  in
  let iters = if full then 20 else 5 in
  let time_per_run f =
    ignore (Sys.opaque_identity (f ()));
    let _, ms =
      wall_clock (fun () ->
          for _ = 1 to iters do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    ms /. float_of_int iters
  in
  let events_of scenario =
    (* same event count on both engines — the runs are bit-identical *)
    let eng =
      match scenario with
      | "fault-free" -> Event_sim.Engine.create s ~fail_times:no_fail
      | "single-crash" -> Event_sim.Engine.create s ~fail_times:crash
      | "loss+outage" -> Event_sim.Engine.create ~faults s ~fail_times:crash
      | _ ->
          Event_sim.Engine.create ~network:(Event_sim.Sender_ports 1) s
            ~fail_times:no_fail
    in
    Event_sim.Engine.drain eng;
    Event_sim.Engine.events_processed eng
  in
  let rows =
    List.map
      (fun (scenario, flat, reference) ->
        if flat () <> reference () then
          failwith
            (Printf.sprintf
               "bench sim: %s: flat engine differs from reference" scenario);
        let flat_ms = time_per_run flat in
        let ref_ms = time_per_run reference in
        { scenario; sim_events = events_of scenario; ref_ms; flat_ms })
      scenarios
  in
  (* run_timed must agree too; it shares the tables so it is not timed
     separately *)
  let timed = [ { Scenario.proc = 7; at = 0.25 *. horizon } ] in
  if Event_sim.run_timed s timed <> Event_sim_ref.run_timed s timed then
    failwith "bench sim: run_timed: flat engine differs from reference";
  let table =
    Table.create
      ~columns:
        [
          "scenario"; "events"; "ref (ms)"; "flat (ms)"; "ref events/s";
          "flat events/s"; "speedup";
        ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.scenario; string_of_int r.sim_events;
          Printf.sprintf "%.2f" r.ref_ms;
          Printf.sprintf "%.2f" r.flat_ms;
          Printf.sprintf "%.0f" (1000. *. float_of_int r.sim_events /. r.ref_ms);
          Printf.sprintf "%.0f"
            (1000. *. float_of_int r.sim_events /. r.flat_ms);
          Printf.sprintf "%.2f" (r.ref_ms /. r.flat_ms);
        ])
    rows;
  show "sim_engine" table;
  (* warm-start: shadow recovery across all m candidate crashes *)
  let candidates =
    List.init m (fun p ->
        let ft = Array.make m infinity in
        ft.(p) <- 0.3 *. horizon;
        ft)
  in
  let shadow ws () =
    List.map (fun ft -> Recovery.run ?workspace:ws s ~fail_times:ft) candidates
  in
  (* best-of-5, cold and warm interleaved, to keep the strict gate out
     of single-core scheduling noise *)
  let best_of f =
    let best = ref infinity in
    for _ = 1 to 5 do
      let _, ms = wall_clock f in
      if ms < !best then best := ms
    done;
    !best
  in
  let rec_ws = Recovery.workspace () in
  let warm_shadow0 = shadow (Some rec_ws) () in
  let cold_shadow0 = shadow None () in
  if warm_shadow0 <> cold_shadow0 then
    failwith "bench sim: shadow recovery differs warm vs cold";
  let shadow_cold_ms = best_of (shadow None) in
  let shadow_warm_ms = best_of (shadow (Some rec_ws)) in
  (* warm-start: FTSA replanning with a reused Driver.workspace *)
  let replans = 5 in
  let replan ws () =
    List.init replans (fun i ->
        Ftsched_core.Ftsa.schedule ~seed:i ?workspace:ws inst ~eps)
  in
  let sched_ws = Ftsched_kernel.Driver.workspace () in
  let warm_replan0 = replan (Some sched_ws) () in
  let cold_replan0 = replan None () in
  if warm_replan0 <> cold_replan0 then
    failwith "bench sim: replanning differs warm vs cold";
  let replan_cold_ms = best_of (replan None) in
  let replan_warm_ms = best_of (replan (Some sched_ws)) in
  let warms =
    [
      {
        warm_name = Printf.sprintf "recovery-shadow-x%d" m;
        cold_ms = shadow_cold_ms;
        warm_ms = shadow_warm_ms;
      };
      {
        warm_name = Printf.sprintf "ftsa-replan-x%d" replans;
        cold_ms = replan_cold_ms;
        warm_ms = replan_warm_ms;
      };
    ]
  in
  let wtable =
    Table.create
      ~columns:[ "loop"; "cold (ms)"; "warm (ms)"; "speedup"; "equal" ]
  in
  List.iter
    (fun w ->
      Table.add_row wtable
        [
          w.warm_name;
          Printf.sprintf "%.1f" w.cold_ms;
          Printf.sprintf "%.1f" w.warm_ms;
          Printf.sprintf "%.2f" (w.cold_ms /. w.warm_ms);
          "true";
        ])
    warms;
  show "sim_warm" wtable;
  write_sim_json rows warms;
  (* 20% headroom over best-of-5: single-core runners jitter these
     sub-second loops by ±25% run to run (same noise band BENCH_PAR
     documents), so the strict gate only catches a warm path that is
     systematically slower, not a scheduler hiccup *)
  if strict then
    List.iter
      (fun w ->
        if w.warm_ms > 1.2 *. w.cold_ms then
          failwith
            (Printf.sprintf
               "bench sim: %s regressed warm (%.1fms) vs cold (%.1fms)"
               w.warm_name w.warm_ms w.cold_ms))
      warms

(* ------------------------------------------------------------------ *)
(* Tournament smoke: a short instance-space annealing campaign, the
   digest compared between -j1 and -jN (bit-identical is a hard
   invariant, not a perf gate), and every witness replayed back to its
   stored ratio. *)

let run_tournament ~strict () =
  section "Tournament smoke (instance-space adversarial annealer)";
  let module Tournament = Ftsched_tournament.Tournament in
  let pairs = 6 and iters = 60 and seed = 2008 in
  let campaign ~jobs () = Tournament.campaign ~jobs ~pairs ~iters ~seed () in
  let r1, ms1 = wall_clock (fun () -> campaign ~jobs:1 ()) in
  let jobs = Par.default_jobs () in
  let rn, msn = wall_clock (fun () -> campaign ~jobs ()) in
  let d1 = Tournament.report_digest r1 in
  let dn = Tournament.report_digest rn in
  Printf.printf "digest -j1 %s, -j%d %s\n" d1 jobs dn;
  if d1 <> dn then failwith "bench tournament: digest differs across -j";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "ftsched-bench-tournament"
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  let witnesses = Tournament.save_witnesses ~dir rn in
  let bad =
    List.filter
      (fun (_, path) -> Result.is_error (Tournament.replay path))
      witnesses
  in
  Printf.printf "witnesses: %d saved, %d replay failure(s)\n"
    (List.length witnesses) (List.length bad);
  if strict && witnesses = [] then
    failwith "bench tournament: campaign produced no witnesses";
  if strict && bad <> [] then
    failwith "bench tournament: witness replay failed";
  show "tournament" (Tournament.matrix_table rn);
  record_entry ~jobs1_ms:ms1 "tournament:campaign" msn

let () =
  let rec parse_jobs acc = function
    | [] -> List.rev acc
    | ("-j" | "--jobs") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            Par.set_default_jobs n;
            parse_jobs acc rest
        | _ -> failwith "bench: -j expects a positive integer")
    | arg :: rest -> parse_jobs (arg :: acc) rest
  in
  let args =
    match parse_jobs [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> [ "all" ]
    | rest -> rest
  in
  let want t =
    List.mem t args
    || List.mem "all" args
       && t <> "smoke" && t <> "par" && t <> "serve" && t <> "scale"
       && t <> "sim" && t <> "tournament"
  in
  if want "fig1" then run_figure ~id:"1" ~eps:1 ~crash_counts:[ 0; 1 ];
  if want "fig2" then run_figure ~id:"2" ~eps:2 ~crash_counts:[ 0; 1; 2 ];
  if want "fig3" then run_figure ~id:"3" ~eps:5 ~crash_counts:[ 0; 2; 5 ];
  if want "fig4" then run_figure4 ();
  if want "table1" then run_table1 ();
  if want "claims" then run_claims ();
  if want "contention" then run_contention ();
  if want "redundancy" then run_redundancy ();
  if want "procs" then run_procs ();
  if want "rftsa" then run_rftsa ();
  if want "reliability" then run_reliability ();
  if want "recovery" then run_recovery ();
  if want "linkloss" then run_linkloss ();
  if want "adversary" then run_adversary ();
  if want "smoke" then run_smoke ();
  if want "micro" then run_micro ();
  if want "kernel" then run_kernel ();
  if want "serve" then run_serve ();
  if want "par" then run_par ~strict:(List.mem "smoke" args) ();
  if want "scale" then run_scale ~strict:(List.mem "smoke" args) ();
  if want "sim" then run_sim ~strict:(List.mem "smoke" args) ();
  if want "tournament" then run_tournament ~strict:(List.mem "smoke" args) ();
  write_bench_json ();
  Printf.printf "\nDone.\n"

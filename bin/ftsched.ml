(* ftsched — command-line front end.

   Subcommands:
     gen         generate a task graph and print/write it (DOT, STG)
     schedule    run a scheduler on a random or imported instance
     simulate    replay a schedule under failures (timed, contended, worst-case)
     bicriteria  explore the latency/failure trade-off of §4.3
     reliability probability of surviving random failures
     inspect     validate and summarize a saved schedule
     experiment  regenerate the paper's figures, Table 1 and the ablations
                 ([all] for every figure target; [--out DIR] archives each
                 table as CSV plus a gnuplot script).  Timing is not here:
                 the benchmark is ftbench/.
     fuzz        differential fuzzing with corpus replay
     stream      online multi-DAG streaming under chaos (admission, shadow
                 plans, never-lost oracle)
     serve       crash-only scheduling-as-a-service daemon (typed overload
                 control, LRU response cache, self-chaos harness)
     tournament  instance-space adversarial tournament: anneal mutated
                 instances to maximize per-pair makespan ratios (A8) *)

open Cmdliner

module Rng = Ftsched_util.Rng
module Table = Ftsched_util.Table
module Dag = Ftsched_dag.Dag
module Generators = Ftsched_dag.Generators
module Classic = Ftsched_dag.Classic
module Dot = Ftsched_dag.Dot
module Properties = Ftsched_dag.Properties
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Granularity = Ftsched_model.Granularity
module Schedule = Ftsched_schedule.Schedule
module Validate = Ftsched_schedule.Validate
module Gantt = Ftsched_schedule.Gantt
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Schedulers = Ftsched_core.Schedulers
module Bicriteria = Ftsched_core.Bicriteria
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Worst_case = Ftsched_sim.Worst_case
module Event_sim = Ftsched_sim.Event_sim
module Recovery = Ftsched_recovery.Recovery
module Workload = Ftsched_exp.Workload
module Figures = Ftsched_exp.Figures
module Stream = Ftsched_stream.Stream

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

(* Validating converters (Ftsched_cli.Converters): malformed values die
   as cmdliner usage errors instead of surfacing as Invalid_argument
   exceptions from deep inside a library call.  Every numeric flag of
   every subcommand routes through these. *)
let prob_conv = Ftsched_cli.Converters.prob
let nonneg_float_conv = Ftsched_cli.Converters.nonneg_float
let pos_float_conv = Ftsched_cli.Converters.pos_float
let pos_int_conv = Ftsched_cli.Converters.pos_int
let nonneg_int_conv = Ftsched_cli.Converters.nonneg_int

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

(* -j/--jobs: worker-domain count for the parallel fan-outs.  The value
   pins the process-wide default used by every Ftsched_par.Par call, so
   one flag covers the whole sweep; outputs are bit-identical for any
   worker count (determinism lives in the per-index seed derivation, not
   the execution order). *)
let jobs_arg =
  Arg.(
    value & opt (some pos_int_conv) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel sweeps (default: \
           $(b,FTSCHED_JOBS) if set, else the number of cores); output \
           is bit-identical for any $(docv), including 1.")

let apply_jobs = function
  | Some n -> Ftsched_par.Par.set_default_jobs n
  | None -> ()

let tasks_arg =
  Arg.(
    value & opt pos_int_conv 100
    & info [ "n"; "tasks" ] ~docv:"N" ~doc:"Number of tasks.")

let procs_arg =
  Arg.(
    value & opt pos_int_conv 20
    & info [ "m"; "procs" ] ~docv:"M" ~doc:"Number of processors.")

let eps_arg =
  Arg.(
    value & opt nonneg_int_conv 1
    & info [ "eps" ] ~docv:"E" ~doc:"Number of tolerated failures.")

let gran_arg =
  Arg.(
    value & opt pos_float_conv 1.0
    & info [ "granularity" ] ~docv:"G"
        ~doc:"Target granularity g(G,P) of the instance.")

let kind_arg =
  Arg.(
    value
    & opt (enum
             [ ("layered", `Layered); ("fft", `Fft); ("gauss", `Gauss);
               ("wavefront", `Wavefront); ("forkjoin", `Forkjoin);
               ("diamond", `Diamond); ("pegasus", `Pegasus) ])
        `Layered
    & info [ "kind" ] ~docv:"KIND"
        ~doc:"Graph family: layered, fft, gauss, wavefront, forkjoin, \
              diamond, pegasus.")

let algo_arg =
  Arg.(
    value
    & opt
        (enum (List.map (fun s -> (s.Schedulers.name, s)) Schedulers.all))
        (Option.get (Schedulers.find "ftsa"))
    & info [ "algo" ] ~docv:"ALGO"
        ~doc:("Scheduler: " ^ String.concat ", " Schedulers.names ^ "."))

let redundancy_arg =
  Arg.(
    value & opt (some pos_int_conv) None
    & info [ "redundancy" ] ~docv:"K"
        ~doc:
          "Only with mc-ftsa: keep $(docv) senders per input instead of one \
           (the redundant extension; K = eps+1 restores full fan-in); any \
           other --algo is a usage error.")

let policy_arg =
  Arg.(
    value
    & vflag Crash_exec.Reroute
        [
          ( Crash_exec.Strict,
            info [ "strict" ]
              ~doc:
                "Strict execution policy (no rerouting); MC-FTSA schedules \
                 may then be defeated, see DESIGN.md." );
        ])

let make_dag kind rng n =
  match kind with
  | `Layered -> Generators.layered rng ~n_tasks:n ()
  | `Fft ->
      let rec pow2 p = if p * 2 > max 2 (n / 4) then p else pow2 (p * 2) in
      Classic.fft ~points:(pow2 2) ()
  | `Gauss ->
      (* pick the matrix size whose task count is closest to n *)
      let rec size s = if (s - 1) * (s + 2) / 2 >= n then s else size (s + 1) in
      Classic.gaussian_elimination ~size:(size 3) ()
  | `Wavefront ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Classic.wavefront ~rows:side ~cols:side ()
  | `Forkjoin -> Generators.fork_join rng ~stages:(max 1 (n / 12)) ~width:10 ()
  | `Pegasus -> Generators.pegasus rng ~n_tasks:(max 1 n) ()
  | `Diamond -> Classic.diamond ~layers:(max 2 (int_of_float (sqrt (float_of_int n)))) ()

let make_instance ~kind ~seed ~n ~m ~granularity =
  let rng = Rng.create ~seed in
  let dag = make_dag kind rng n in
  let platform = Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 () in
  let inst = Instance.random_exec rng ~dag ~platform () in
  if Dag.n_edges dag = 0 then inst
  else Granularity.scale_to inst ~target:granularity

(* Bad input that only shows against other flags: one line on stderr,
   exit 2. *)
let input_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("ftsched: " ^ msg);
      exit 2)
    fmt

(* A file that does not parse is bad input too. *)
let parse_file load path =
  try load path with Failure msg -> input_error "%s: %s" path msg

(* Run the --algo scheduler.  A policy rejecting --eps for the instance
   is an input error; the fault-free policies ignore --eps. *)
let plan ?trace (algo : Schedulers.t) ~seed inst ~eps =
  match algo.run ?trace ~seed inst ~eps with
  | exception Invalid_argument msg -> input_error "%s" msg
  | s ->
      if eps > 0 && Schedule.eps s = 0 then
        Printf.eprintf "note: %s is fault-free; ignoring --eps\n%!" algo.name;
      s

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)

let gen_cmd =
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write DOT to $(docv).")
  in
  let stg =
    Arg.(
      value & opt (some string) None
      & info [ "stg" ] ~docv:"FILE"
          ~doc:
            "Also export in STG format to $(docv) (node costs: the tasks' \
             average execution times on a reference platform).")
  in
  let run kind n seed out stg =
    let rng = Rng.create ~seed in
    let dag = make_dag kind rng n in
    Format.printf "%a@." Dag.pp dag;
    Format.printf "height=%d width<=%d transitive_edges=%d@."
      (Properties.height dag)
      (Properties.width_upper_bound dag)
      (Properties.transitive_edge_count dag);
    (match stg with
    | Some path ->
        let costs = Array.init (Dag.n_tasks dag) (fun _ -> Rng.float_in rng 50. 150.) in
        Ftsched_dag.Stg.save dag ~costs ~path;
        Format.printf "wrote %s@." path
    | None -> ());
    match out with
    | Some path ->
        Dot.save dag ~path;
        Format.printf "wrote %s@." path
    | None -> print_string (Dot.to_dot dag)
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a task graph")
    Term.(const run $ kind_arg $ tasks_arg $ seed_arg $ out $ stg)

(* ------------------------------------------------------------------ *)
(* schedule                                                            *)

let schedule_cmd =
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Draw an ASCII Gantt chart.")
  in
  let listing =
    Arg.(value & flag & info [ "listing" ] ~doc:"Print the replica listing.")
  in
  let svg =
    Arg.(
      value & opt (some string) None
      & info [ "svg" ] ~docv:"FILE" ~doc:"Write an SVG Gantt chart to $(docv).")
  in
  let save =
    Arg.(
      value & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:"Serialize the schedule (with its instance) to $(docv).")
  in
  let from_stg =
    Arg.(
      value & opt (some string) None
      & info [ "from-stg" ] ~docv:"FILE"
          ~doc:
            "Schedule the task graph imported from an STG file instead of a \
             generated one (a random platform of --procs processors is \
             drawn; node costs are lifted to an unrelated cost matrix).")
  in
  let trace_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Record every scheduling decision (per-step candidate \
             evaluations, chosen replicas, selected edges) to $(docv) as \
             JSON lines.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print per-step statistics of the scheduler kernel (candidate \
             evaluations per task, gap-search depth, phase timings).")
  in
  let run kind n m eps granularity seed algo redundancy gantt listing svg save
      from_stg trace_file stats =
    let algo =
      match redundancy with
      | None -> algo
      | Some k when algo.Schedulers.name = "mc-ftsa" ->
          let strategy = Mc_ftsa.Redundant k in
          let run ?trace ~seed = Mc_ftsa.schedule ~seed ~strategy ?trace in
          { Schedulers.name = Printf.sprintf "mc-ftsa --redundancy %d" k; run }
      | Some k ->
          input_error "--redundancy %d: only with --algo mc-ftsa (not %s)" k
            algo.name
    in
    let inst =
      match from_stg with
      | Some path ->
          let dag, costs = parse_file Ftsched_dag.Stg.load path in
          let rng = Rng.create ~seed in
          let platform =
            Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 ()
          in
          let inst = Instance.of_task_costs rng ~dag ~costs ~platform () in
          if Dag.n_edges dag = 0 then inst
          else Granularity.scale_to inst ~target:granularity
      | None -> make_instance ~kind ~seed ~n ~m ~granularity
    in
    let trace =
      if stats || trace_file <> None then Some (Ftsched_kernel.Trace.create ())
      else None
    in
    let s = plan ?trace algo ~seed inst ~eps in
    Format.printf "%a@." Schedule.pp_summary s;
    Format.printf "granularity=%.3f  comm-volume=%.4g@."
      (Granularity.granularity inst)
      (Schedule.total_comm_volume s);
    Format.printf "%a@." Ftsched_schedule.Metrics.pp s;
    (match Validate.check s with
    | Ok () -> Format.printf "validation: ok@."
    | Error errs ->
        Format.printf "validation: %d error(s)@." (List.length errs);
        List.iter (Format.printf "  %a@." Validate.pp_error) errs);
    (match trace with
    | Some tr when stats ->
        Format.printf "%a@." Ftsched_schedule.Metrics.pp_step_stats
          (Ftsched_kernel.Trace.stats tr)
    | _ -> ());
    (match (trace, trace_file) with
    | Some tr, Some path ->
        Ftsched_kernel.Trace.save_jsonl tr ~algorithm:algo.Schedulers.name
          ~path;
        Format.printf "wrote %s@." path
    | _ -> ());
    if gantt then print_string (Gantt.render s);
    if listing then print_string (Gantt.render_listing s);
    (match svg with
    | Some path ->
        Gantt.save_svg s ~path;
        Format.printf "wrote %s@." path
    | None -> ());
    match save with
    | Some path ->
        Ftsched_schedule.Serialize.save_schedule s ~path;
        Format.printf "wrote %s@." path
    | None -> ()
  in
  Cmd.v (Cmd.info "schedule" ~doc:"Schedule a random instance")
    Term.(
      const run $ kind_arg $ tasks_arg $ procs_arg $ eps_arg $ gran_arg
      $ seed_arg $ algo_arg $ redundancy_arg $ gantt $ listing $ svg $ save
      $ from_stg $ trace_arg $ stats)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_cmd =
  let fail =
    Arg.(
      value & opt (list nonneg_int_conv) []
      & info [ "fail" ] ~docv:"P1,P2" ~doc:"Processors to fail (from t=0).")
  in
  let crashes =
    Arg.(
      value & opt (some nonneg_int_conv) None
      & info [ "crashes" ] ~docv:"K"
          ~doc:"Fail $(docv) random processors instead of an explicit list.")
  in
  let timed =
    Arg.(
      value & flag
      & info [ "timed" ]
          ~doc:
            "Use the event-driven simulator with random failure instants \
             instead of crash-at-start.")
  in
  let ports =
    Arg.(
      value & opt (some pos_int_conv) None
      & info [ "ports" ] ~docv:"K"
          ~doc:
            "Replay under the bounded multi-port contention model with \
             $(docv) outgoing ports per processor (1 = one-port); implies \
             the event-driven simulator.")
  in
  let worst =
    Arg.(
      value & flag
      & info [ "worst-case" ]
          ~doc:
            "Exhaustively replay every subset of --eps failed processors and \
             report the extremes and the tightness of the bound M.")
  in
  let recover =
    Arg.(
      value & flag
      & info [ "recover" ]
          ~doc:
            "Enable the online recovery runtime: failures are detected \
             --delta after they occur and lost work is re-mapped onto \
             surviving processors.")
  in
  let delta =
    Arg.(
      value & opt nonneg_float_conv 0.
      & info [ "delta" ] ~docv:"D"
          ~doc:"Failure detection latency for --recover (default 0).")
  in
  let rounds =
    Arg.(
      value & opt (some pos_int_conv) None
      & info [ "rounds" ] ~docv:"R"
          ~doc:
            "Maximum re-injections per task for --recover (default: the \
             number of processors).")
  in
  let loss =
    Arg.(
      value & opt prob_conv 0.
      & info [ "loss" ] ~docv:"P"
          ~doc:
            "Per-message loss probability in [0,1]; implies the \
             event-driven simulator.")
  in
  let retries =
    Arg.(
      value & opt nonneg_int_conv 3
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Retransmissions per lost message before it is declared \
             permanently lost (default 3).")
  in
  let adversary =
    Arg.(
      value & flag
      & info [ "adversary" ]
          ~doc:
            "Search for the worst timed failure scenario (death instants, \
             optionally --links dropped links) instead of sampling; prints \
             the witness, the scenario that Adversary.replay re-executes.")
  in
  let links =
    Arg.(
      value & opt nonneg_int_conv 0
      & info [ "links" ] ~docv:"K"
          ~doc:"Link blackouts the --adversary may spend (default 0).")
  in
  let run kind n m eps granularity seed algo fail crashes timed policy ports
      worst recover delta rounds loss retries adversary links jobs =
    apply_jobs jobs;
    (match (crashes, List.find_opt (fun p -> p >= m) fail) with
    | Some k, _ when k > m -> input_error "--crashes %d: only %d processors" k m
    | None, Some p -> input_error "--fail %d: no such processor (-m %d)" p m
    | _ -> ());
    let inst = make_instance ~kind ~seed ~n ~m ~granularity in
    let s = plan algo ~seed inst ~eps in
    Format.printf "%a@." Schedule.pp_summary s;
    let faults =
      if loss = 0. then Scenario.reliable
      else Scenario.lossy ~loss ~retries ~seed:(seed + 3) ()
    in
    if worst then begin
      let r = Worst_case.analyze ~policy s ~count:eps in
      let sampled = if r.Worst_case.sampled then " (sampled)" else "" in
      match r.Worst_case.stats with
      | None ->
          Format.printf "worst case: all %d scenarios%s defeated@."
            r.Worst_case.scenarios sampled
      | Some st ->
          Format.printf
            "worst case over %d scenarios%s: best=%.6g mean=%.6g worst=%.6g \
             (defeated: %d)@."
            r.Worst_case.scenarios sampled st.Worst_case.best
            st.Worst_case.mean st.Worst_case.worst r.Worst_case.defeated;
          Format.printf "worst scenario: %a  bound tightness worst/M = %.4f@."
            Scenario.pp st.Worst_case.worst_scenario
            (st.Worst_case.worst /. Schedule.latency_upper_bound s)
    end;
    if adversary then begin
      let module Adversary = Ftsched_sim.Adversary in
      let r = Adversary.search ~faults ~links ~seed s ~count:eps in
      Format.printf "adversary (%s, %d evaluations): %a (untimed worst: %a)@."
        (match r.Adversary.verdict with
        | Adversary.Certified -> "certified"
        | Adversary.Empirical -> "empirical")
        r.Adversary.evaluations Adversary.pp_outcome r.Adversary.worst
        Adversary.pp_outcome r.Adversary.untimed_worst;
      Format.printf "witness: %a@." Adversary.pp_witness r.Adversary.witness
    end;
    let rng = Rng.create ~seed:(seed + 1) in
    let scenario =
      match crashes with
      | Some k -> Scenario.random rng ~m ~count:k
      | None -> Scenario.of_list fail
    in
    let network =
      match ports with
      | Some k -> Event_sim.Sender_ports k
      | None -> Event_sim.Contention_free
    in
    if recover || timed || ports <> None || loss > 0. then begin
      let horizon = Schedule.latency_upper_bound s in
      let t =
        if timed then
          (* random instants; with --crashes also random processors *)
          match crashes with
          | Some k -> Scenario.random_timed rng ~m ~count:k ~horizon
          | None ->
              List.map
                (fun proc -> { Scenario.proc; at = Rng.float_in rng 0. horizon })
                fail
        else
          List.map
            (fun p -> { Scenario.proc = p; at = 0. })
            (Array.to_list scenario.Scenario.failed)
      in
      List.iter
        (fun { Scenario.proc; at } ->
          Format.printf "P%d fails at %.4g@." proc at)
        t;
      if recover then begin
        let o = Recovery.run_timed ~network ~faults ~delta ?rounds s t in
        (match o.Recovery.result.Event_sim.latency with
        | Some l -> Format.printf "achieved latency (with recovery): %.6g@." l
        | None ->
            Format.printf "application NOT completed; degraded outcome:@.");
        Format.printf "%a@." Ftsched_schedule.Metrics.pp_degraded
          o.Recovery.degraded;
        Format.printf "injections=%d kills=%d detected-failures=%d events=%d@."
          o.Recovery.injections o.Recovery.kills o.Recovery.detected_failures
          o.Recovery.result.Event_sim.events_processed
      end
      else begin
      let r = Event_sim.run_timed ~network ~faults s t in
      (match r.Event_sim.latency with
      | Some l -> Format.printf "achieved latency: %.6g@." l
      | None -> Format.printf "schedule DEFEATED by the scenario@.");
      if loss > 0. then
        Format.printf "retransmissions: %d  permanently lost messages: %d@."
          r.Event_sim.retransmissions r.Event_sim.lost_messages;
      Format.printf "events processed: %d@." r.Event_sim.events_processed
      end
    end
    else begin
      Format.printf "scenario: %a@." Scenario.pp scenario;
      let r = Crash_exec.run ~policy s scenario in
      match r.Crash_exec.latency with
      | Some l ->
          Format.printf "achieved latency: %.6g  (bounds [%.6g, %.6g])@." l
            (Schedule.latency_lower_bound s)
            (Schedule.latency_upper_bound s)
      | None -> Format.printf "schedule DEFEATED by the scenario@."
    end
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Replay a schedule under failures")
    Term.(
      const run $ kind_arg $ tasks_arg $ procs_arg $ eps_arg $ gran_arg
      $ seed_arg $ algo_arg $ fail $ crashes $ timed $ policy_arg $ ports
      $ worst $ recover $ delta $ rounds $ loss $ retries $ adversary $ links
      $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* inspect                                                             *)

let inspect_cmd =
  let file =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Serialized schedule (see schedule --save).")
  in
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Draw an ASCII Gantt chart.")
  in
  let run file gantt =
    let s =
      parse_file (fun path -> Ftsched_schedule.Serialize.load_schedule ~path) file
    in
    let inst = Schedule.instance s in
    Format.printf "%a@." Instance.pp inst;
    Format.printf "%a@." Schedule.pp_summary s;
    (match Validate.check s with
    | Ok () -> Format.printf "validation: ok@."
    | Error errs ->
        Format.printf "validation: %d error(s)@." (List.length errs);
        List.iter (Format.printf "  %a@." Validate.pp_error) errs);
    Format.printf "survives all %d-failure subsets: %b@." (Schedule.eps s)
      (Worst_case.first_defeat s ~count:(Schedule.eps s) = None);
    if gantt then print_string (Gantt.render s)
  in
  Cmd.v (Cmd.info "inspect" ~doc:"Validate and summarize a saved schedule")
    Term.(const run $ file $ gantt)

(* ------------------------------------------------------------------ *)
(* reliability                                                         *)

let reliability_cmd =
  let module R = Ftsched_reliability.Reliability in
  let p_fail =
    Arg.(
      value & opt prob_conv 0.1
      & info [ "p-fail" ] ~docv:"P"
          ~doc:"Per-processor failure probability (crash-at-start model).")
  in
  let rate =
    Arg.(
      value & opt (some pos_float_conv) None
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Exponential failure rate per unit time: switch to the timed \
             mission model instead of crash-at-start.")
  in
  let trials =
    Arg.(
      value & opt pos_int_conv 5000
      & info [ "trials" ] ~docv:"N" ~doc:"Monte-Carlo trials.")
  in
  let run kind n m eps granularity seed algo p_fail rate trials policy =
    let inst = make_instance ~kind ~seed ~n ~m ~granularity in
    let s = plan algo ~seed inst ~eps in
    Format.printf "%a@." Schedule.pp_summary s;
    match rate with
    | Some rate ->
        let rng = Rng.create ~seed:(seed + 2) in
        let est, lat = R.mission rng s ~rate ~trials () in
        Format.printf "mission reliability (rate %.4g): %.4f ± %.4f@." rate
          est.R.mean est.R.stderr;
        (match lat with
        | Some l -> Format.printf "mean latency of successful runs: %.4g@." l
        | None -> Format.printf "no successful run@.")
    | None ->
        Format.printf "Theorem-4.1 binomial bound: %.6f@."
          (R.binomial_bound s ~p_fail);
        if m <= 16 then
          Format.printf "exact reliability: %.6f@." (R.exact s policy ~p_fail)
        else begin
          let rng = Rng.create ~seed:(seed + 2) in
          let est = R.monte_carlo rng s policy ~p_fail ~trials in
          Format.printf "Monte-Carlo reliability: %.4f ± %.4f (%d trials)@."
            est.R.mean est.R.stderr est.R.trials
        end
  in
  Cmd.v
    (Cmd.info "reliability"
       ~doc:"Probability that the schedule survives random failures")
    Term.(
      const run $ kind_arg $ tasks_arg $ procs_arg $ eps_arg $ gran_arg
      $ seed_arg $ algo_arg $ p_fail $ rate $ trials $ policy_arg)

(* ------------------------------------------------------------------ *)
(* bicriteria                                                          *)

let bicriteria_cmd =
  let latency =
    Arg.(
      required & opt (some pos_float_conv) None
      & info [ "latency" ] ~docv:"L" ~doc:"Latency target.")
  in
  let dual =
    Arg.(
      value & flag
      & info [ "dual" ]
          ~doc:
            "Check feasibility of (latency, eps) jointly with the deadline \
             test of §4.3 instead of maximizing eps.")
  in
  let run kind n m eps granularity seed latency dual =
    let inst = make_instance ~kind ~seed ~n ~m ~granularity in
    if dual then begin
      match Bicriteria.with_deadlines ~seed inst ~eps ~latency with
      | Ok s ->
          Format.printf "feasible: %a@." Schedule.pp_summary s
      | Error { Bicriteria.task; deadline; finish } ->
          Format.printf
            "infeasible: task %d missed deadline %.6g (best finish %.6g)@."
            task deadline finish
    end
    else begin
      match Bicriteria.max_supported_failures ~seed inst ~latency with
      | Some (eps, s) ->
          Format.printf "max supported failures: %d@." eps;
          Format.printf "%a@." Schedule.pp_summary s
      | None ->
          Format.printf
            "no schedule meets latency %.6g even without replication@." latency
    end
  in
  Cmd.v
    (Cmd.info "bicriteria" ~doc:"Latency/failure trade-off exploration (§4.3)")
    Term.(
      const run $ kind_arg $ tasks_arg $ procs_arg $ eps_arg $ gran_arg
      $ seed_arg $ latency $ dual)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

(* What an experiment target sees of the command line. *)
type experiment_ctx = {
  spec : Workload.spec;
  full : bool;
  graphs : int option;
  master_seed : int option;
  gate : bool;  (** exit 1 when a claim fails *)
  show : string -> Table.t -> unit;  (** print, and archive under [--out] *)
}

let panels id ~eps ~crash_counts c =
  let p =
    Figures.figure ~spec:c.spec ?master_seed:c.master_seed ~eps ~crash_counts
      ()
  in
  c.show (id ^ "_bounds") p.Figures.bounds;
  c.show (id ^ "_crash") p.Figures.crash;
  c.show (id ^ "_overhead") p.Figures.overhead;
  c.show (id ^ "_mc_defeats") p.Figures.mc_defeats

(* The figure targets, in the order [all] runs them. *)
let figure_targets =
  [
    ("fig1", panels "fig1" ~eps:1 ~crash_counts:[ 0; 1 ]);
    ("fig2", panels "fig2" ~eps:2 ~crash_counts:[ 0; 1; 2 ]);
    ("fig3", panels "fig3" ~eps:5 ~crash_counts:[ 0; 2; 5 ]);
    ( "fig4",
      fun c ->
        let latency, overhead =
          Figures.figure4 ~spec:c.spec ?master_seed:c.master_seed ()
        in
        c.show "fig4_latency" latency;
        c.show "fig4_overhead" overhead );
    ( "table1",
      fun c ->
        let sizes = if c.full then Figures.paper_sizes else [ 100; 500; 1000 ] in
        c.show "table1" (Figures.table1 ~sizes ?seed:c.master_seed ()) );
    ( "claims",
      fun c ->
        let verdicts =
          Ftsched_exp.Claims.verify ~spec:c.spec ?master_seed:c.master_seed ()
        in
        c.show "claims" (Ftsched_exp.Claims.to_table verdicts);
        Printf.printf "claims verified: %d/%d\n"
          (List.length
             (List.filter (fun v -> v.Ftsched_exp.Claims.holds) verdicts))
          (List.length verdicts);
        if c.gate && not (Ftsched_exp.Claims.all_hold verdicts) then exit 1 );
    ( "contention",
      fun c ->
        c.show "contention"
          (Figures.contention_ablation ~spec:c.spec ?master_seed:c.master_seed
             ~eps:2 ~ports:[ 1; 4 ] ()) );
    ( "redundancy",
      fun c ->
        c.show "redundancy"
          (Figures.redundancy_ablation ~spec:c.spec ?master_seed:c.master_seed
             ~eps:2 ()) );
    ( "procs",
      fun c ->
        c.show "procs_sweep"
          (Figures.procs_sweep ~spec:c.spec ?master_seed:c.master_seed ~eps:2
             ~procs:[ 5; 8; 12; 16; 20; 30 ] ()) );
    ( "rftsa",
      fun c ->
        c.show "rftsa"
          (Figures.rftsa_ablation ~spec:c.spec ?master_seed:c.master_seed
             ~eps:2 ()) );
    ( "reliability",
      fun c ->
        c.show "reliability"
          (Figures.reliability_ablation ~spec:c.spec
             ?master_seed:c.master_seed ~p_fail:0.1 ()) );
    ( "recovery",
      fun c ->
        let p =
          Figures.recovery_ablation ~spec:c.spec ?master_seed:c.master_seed
            ~eps:2 ()
        in
        c.show "recovery_campaign" p.Figures.campaign;
        c.show "recovery_exact_eps" p.Figures.exact_eps );
    ( "linkloss",
      fun c ->
        c.show "linkloss"
          (Figures.link_loss_ablation ~spec:c.spec ?master_seed:c.master_seed
             ~eps:2 ()) );
    ( "adversary",
      fun c ->
        c.show "adversary"
          (Figures.adversary_table ~spec:c.spec ?master_seed:c.master_seed
             ~eps:2 ()) );
  ]

(* Separate campaigns, run only when named. *)
let campaign_targets =
  [
    ( "stream",
      fun c ->
        let seeds_per_point =
          match c.graphs with
          | Some n -> n
          | None -> if c.full then 30 else 10
        in
        c.show "stream"
          (Figures.stream_ablation ?master_seed:c.master_seed ~seeds_per_point
             ()) );
    ( "tournament",
      fun c ->
        let pairs = if c.full then 30 else 12 in
        let iters = if c.full then 400 else 120 in
        c.show "tournament"
          (Figures.tournament_matrix ?master_seed:c.master_seed ~pairs ~iters
             ()) );
  ]

let experiment_cmd =
  let targets = figure_targets @ campaign_targets in
  let names = "all" :: List.map fst targets in
  let what =
    Arg.(
      value
      & pos 0 (enum (List.map (fun n -> (n, n)) names)) "fig1"
      & info [] ~docv:"WHAT"
          ~doc:
            (String.concat " | " names
            ^ ".  $(b,all) runs every target but stream and tournament, in \
               that order, and reports the claims verdict without failing \
               on it; $(b,claims) alone exits 1 when a claim fails."))
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Paper-scale sweep (60 graphs per point).")
  in
  let graphs =
    Arg.(
      value & opt (some pos_int_conv) None
      & info [ "graphs" ] ~docv:"N" ~doc:"Override graphs per point.")
  in
  let seed =
    Arg.(
      value & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Master seed (default: each driver's own — 2008, and 1 for \
             table1 — the seed every recorded table uses).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Also write each table as $(docv)/SLUG.csv plus a gnuplot \
             script $(docv)/SLUG.gp (data in SLUG.dat); $(docv) is created \
             if missing.")
  in
  let run what full graphs master_seed jobs out =
    apply_jobs jobs;
    let spec = if full then Workload.paper else Workload.quick in
    let spec =
      match graphs with
      | Some n -> Workload.with_graphs_per_point spec n
      | None -> spec
    in
    (* Prepare the --out directory before any target spends its time. *)
    Option.iter
      (fun dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
        else if not (Sys.is_directory dir) then
          input_error "--out %s: not a directory" dir)
      out;
    let show slug table =
      Printf.printf "-- %s --\n" slug;
      Table.print table;
      Option.iter
        (fun dir ->
          let basename = Filename.concat dir slug in
          Table.save_csv table ~path:(basename ^ ".csv");
          Ftsched_util.Gnuplot.save table ~basename)
        out
    in
    let c = { spec; full; graphs; master_seed; gate = true; show } in
    match what with
    | "all" -> List.iter (fun (_, f) -> f { c with gate = false }) figure_targets
    | name -> List.assoc name targets c
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Regenerate the paper's figures/tables")
    Term.(const run $ what $ full $ graphs $ seed $ jobs_arg $ out)

(* ------------------------------------------------------------------ *)
(* stream                                                              *)

let stream_cmd =
  let m_arg =
    Arg.(
      value & opt pos_int_conv 8
      & info [ "m"; "procs" ] ~docv:"M" ~doc:"Shared platform size.")
  in
  let eps_arg =
    Arg.(
      value & opt nonneg_int_conv 1
      & info [ "eps" ] ~docv:"E"
          ~doc:"Requested survivability per job (replicas = $(docv)+1).")
  in
  let capacity_arg =
    Arg.(
      value & opt pos_int_conv 8
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Admission bound: jobs holding reservations at once; beyond \
             it arrivals are rejected with a typed backpressure reason.")
  in
  let rate_arg =
    Arg.(
      value & opt pos_float_conv 0.5
      & info [ "rate" ] ~docv:"R"
          ~doc:"Job arrivals per unit time (Poisson).")
  in
  let duration_arg =
    Arg.(
      value & opt pos_float_conv 100.
      & info [ "duration" ] ~docv:"T" ~doc:"Arrival window length.")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Inject the default chaos trace: Poisson processor crashes \
             (rate 0.05, reboot after 10) and link outage windows.")
  in
  let crash_rate_arg =
    Arg.(
      value & opt (some nonneg_float_conv) None
      & info [ "crash-rate" ] ~docv:"R"
          ~doc:
            "Override the chaos crash rate (crashes per unit time); \
             implies $(b,--chaos).")
  in
  let loss_arg =
    Arg.(
      value & opt (some prob_conv) None
      & info [ "loss" ] ~docv:"P"
          ~doc:"Per-message loss probability; implies $(b,--chaos).")
  in
  let delta_arg =
    Arg.(
      value & opt nonneg_float_conv 1.
      & info [ "delta" ] ~docv:"D"
          ~doc:
            "Failure detection + re-planning latency paid when a shadow \
             plan goes stale.")
  in
  let seeds_arg =
    Arg.(
      value & opt pos_int_conv 1
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Trace seeds 0..N-1 (campaign, parallel over seeds).")
  in
  let no_shadow_arg =
    Arg.(
      value & flag
      & info [ "no-shadow" ]
          ~doc:
            "Disable shadow plans: jobs run their static replicated \
             plans with no mid-stream re-injection.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Print every job of every trace.")
  in
  let run m eps capacity rate duration chaos crash_rate loss delta seeds
      no_shadow trace jobs =
    apply_jobs jobs;
    let base =
      if chaos || crash_rate <> None || loss <> None then Stream.default_chaos
      else Stream.no_chaos
    in
    let chaos_cfg =
      {
        base with
        Stream.crash_rate =
          Option.value crash_rate ~default:base.Stream.crash_rate;
        loss = Option.value loss ~default:base.Stream.loss;
      }
    in
    let config =
      {
        Stream.default_config with
        Stream.m;
        eps;
        capacity;
        rate;
        duration;
        delta;
        chaos = chaos_cfg;
        shadow = not no_shadow;
      }
    in
    let reports =
      try Stream.campaign ~config ?jobs ~seeds ()
      with Invalid_argument msg ->
        Printf.eprintf "stream: %s\n" msg;
        exit 2
    in
    if trace then
      List.iter
        (fun r -> Format.printf "@[<v>%a@]@.@." Stream.pp_report r)
        reports;
    Table.print (Stream.totals_table [ ("stream", Stream.merge_totals reports) ]);
    let digest =
      Digest.to_hex
        (Digest.string (String.concat "" (List.map Stream.report_digest reports)))
    in
    Printf.printf "campaign digest: %s\n" digest;
    let violations =
      List.concat_map
        (fun r ->
          List.map (fun e -> (r.Stream.seed, e)) (Stream.check_report r))
        reports
    in
    if violations = [] then
      Printf.printf "never-lost oracle: clean, 0 lost jobs across %d seed(s)\n"
        seeds
    else begin
      Printf.printf "never-lost oracle: %d violation(s)\n"
        (List.length violations);
      List.iter
        (fun (seed, e) -> Printf.printf "  seed %d: %s\n" seed e)
        violations;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:
         "Online multi-DAG streaming on a shared platform: Poisson \
          arrivals through residual-timeline admission control \
          (equation-(1) placement, graceful replication degradation, \
          bounded-queue backpressure), per-job shadow recovery plans, \
          and a chaos runner injecting crashes and link outages \
          mid-stream.  Every submitted job ends in a typed fate; the \
          never-lost oracle is checked on every trace.")
    Term.(
      const run $ m_arg $ eps_arg $ capacity_arg $ rate_arg $ duration_arg
      $ chaos_arg $ crash_rate_arg $ loss_arg $ delta_arg $ seeds_arg
      $ no_shadow_arg $ trace_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

let serve_cmd =
  let module Server = Ftsched_serve.Server in
  let module Chaos = Ftsched_serve.Chaos_client in
  let socket_arg =
    Arg.(
      value & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv); a stale socket \
             file left by a crashed predecessor is replaced.")
  in
  let port_arg =
    Arg.(
      value & opt (some nonneg_int_conv) None
      & info [ "port" ] ~docv:"N"
          ~doc:"Listen on TCP port $(docv) (0 auto-assigns).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Bind address for $(b,--port).")
  in
  let self_test_arg =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Boot an in-process server on a temporary socket, flood it \
             with seeded adversarial client sessions (corrupt frames, \
             floods, disconnects, slow writes), then assert the \
             accounting oracle and exit non-zero on any violation.")
  in
  let probe_arg =
    Arg.(
      value
      & opt ~vopt:(Some "") (some string) None
      & info [ "probe" ] ~docv:"PATH"
          ~doc:
            "Send one health request — to the unix socket $(docv) when \
             given, else to $(b,--socket)/$(b,--port) — and exit 0 iff \
             a well-formed response arrives.")
  in
  let seeds_arg =
    Arg.(
      value & opt pos_int_conv 25
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Chaos sessions for $(b,--self-test).")
  in
  let threads_arg =
    Arg.(
      value & opt pos_int_conv 4
      & info [ "threads" ] ~docv:"N"
          ~doc:"Concurrent client threads for $(b,--self-test).")
  in
  let capacity_arg =
    Arg.(
      value & opt (some pos_int_conv) None
      & info [ "capacity" ] ~docv:"N"
          ~doc:
            "Bounded work-queue depth; beyond it requests are rejected \
             with a typed overloaded error (default 64; 8 under \
             $(b,--self-test) so floods actually reach the bound).")
  in
  let max_frame_arg =
    Arg.(
      value & opt pos_int_conv Ftsched_serve.Protocol.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES"
          ~doc:"Per-frame payload cap, checked before any allocation.")
  in
  let idle_arg =
    Arg.(
      value & opt pos_float_conv 30.
      & info [ "idle-timeout" ] ~docv:"S"
          ~doc:"Reap connections idle for $(docv) seconds.")
  in
  let drain_arg =
    Arg.(
      value & opt nonneg_float_conv 5.
      & info [ "drain-grace" ] ~docv:"S"
          ~doc:
            "On SIGTERM/SIGINT: stop accepting and keep executing queued \
             work for up to $(docv) seconds; the rest is abandoned with \
             typed draining responses.")
  in
  let run socket port host self_test probe seeds threads capacity max_frame
      idle_timeout drain_grace jobs =
    apply_jobs jobs;
    let config capacity_default =
      {
        Server.default_config with
        Server.capacity = Option.value capacity ~default:capacity_default;
        max_frame;
        idle_timeout;
        drain_grace;
        jobs;
      }
    in
    let address () =
      match (socket, port) with
      | Some path, None -> Server.Unix_socket path
      | None, Some port -> Server.Tcp { host; port }
      | Some _, Some _ ->
          prerr_endline "serve: --socket and --port are mutually exclusive";
          exit 2
      | None, None ->
          prerr_endline "serve: need --socket PATH or --port N";
          exit 2
    in
    if self_test then begin
      let r = Chaos.self_test ~config:(config 8) ?jobs ~threads ~seeds () in
      let o = r.Chaos.outcome in
      Printf.printf
        "serve self-test: %d sessions, %d requests sent, %d ok, %d typed \
         errors, %d identity checks\n"
        o.Chaos.sessions o.Chaos.requests_sent o.Chaos.responses_ok
        o.Chaos.responses_error o.Chaos.identity_checks;
      print_endline (Server.accounting_line r.Chaos.metrics);
      let all = o.Chaos.violations @ r.Chaos.accounting in
      if all = [] then print_endline "chaos oracle: clean"
      else begin
        Printf.printf "chaos oracle: %d violation(s)\n" (List.length all);
        List.iter (Printf.printf "  %s\n") all;
        exit 1
      end
    end
    else
      match probe with
      | Some path -> (
          let addr =
            if path = "" then address () else Server.Unix_socket path
          in
          match Chaos.probe addr with
          | Ok body -> Printf.printf "ok health %s\n" body
          | Error msg ->
              Printf.eprintf "probe failed: %s\n" msg;
              exit 1)
      | None ->
          let server = Server.create ~config:(config 64) (address ()) in
          let handle = Sys.Signal_handle (fun _ -> Server.stop server) in
          Sys.set_signal Sys.sigterm handle;
          Sys.set_signal Sys.sigint handle;
          (match (Server.bound_port server, socket) with
          | Some p, _ ->
              Printf.printf "ftsched-serve: listening on port %d\n%!" p
          | None, Some path ->
              Printf.printf "ftsched-serve: listening on %s\n%!" path
          | None, None -> ());
          let m = Server.serve server in
          print_endline (Server.accounting_line m);
          if Server.check_accounting m <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Crash-only scheduling-as-a-service daemon: a length-prefixed \
          binary protocol over Unix or TCP sockets carrying serialized \
          schedule/simulate/stream requests, with bounds-checked frames, \
          typed overload and deadline rejections from a bounded admission \
          queue, an LRU response cache, execution on the worker-domain \
          pool, graceful SIGTERM drain, and a built-in seeded chaos \
          harness ($(b,--self-test)).")
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ self_test_arg $ probe_arg
      $ seeds_arg $ threads_arg $ capacity_arg $ max_frame_arg $ idle_arg
      $ drain_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)

let fuzz_cmd =
  let module Fuzz = Ftsched_fuzz.Fuzz in
  let seeds_arg =
    Arg.(
      value & opt pos_int_conv 100
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of fuzzing seeds (0..N-1).")
  in
  let budget_arg =
    Arg.(
      value & opt (some nonneg_float_conv) None
      & info [ "time-budget" ] ~docv:"S"
          ~doc:
            "Stop launching new seed chunks after $(docv) wall-clock \
             seconds; seeds already launched still finish.  The early \
             stop is the only source of nondeterminism — per-seed \
             results are unaffected.")
  in
  let dir_arg =
    Arg.(
      value & opt string "_fuzz"
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Directory for shrunk counterexample witnesses.")
  in
  let no_save_arg =
    Arg.(
      value & flag
      & info [ "no-save" ] ~doc:"Do not write witness files on violation.")
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:
            "Re-check a saved witness instead of fuzzing.  A file \
             replays that witness; a directory replays every $(b,.case) \
             file in it (corpus regression), exiting non-zero if any \
             replay still fires an oracle.")
  in
  let print_violations vs =
    List.iter
      (fun v ->
        Printf.printf "  [%s] %s\n"
          (Fuzz.oracle_name v.Fuzz.oracle)
          v.Fuzz.detail)
      vs
  in
  let run seeds budget dir no_save replay jobs =
    apply_jobs jobs;
    match replay with
    | Some path when Sys.file_exists path && Sys.is_directory path ->
        let results = Fuzz.replay_corpus path in
        if results = [] then begin
          Printf.printf "%s: no .case files to replay\n" path;
          exit 0
        end;
        let firing = ref 0 in
        List.iter
          (fun (p, res) ->
            match res with
            | Error msg ->
                incr firing;
                Printf.printf "%s: replay failed: %s\n" p msg
            | Ok (name, []) -> Printf.printf "%s: %s is clean\n" p name
            | Ok (name, violations) ->
                incr firing;
                Printf.printf "%s: %s still fails %d oracle check(s)\n" p name
                  (List.length violations);
                print_violations violations)
          results;
        Printf.printf "corpus: %d/%d witness(es) still firing\n" !firing
          (List.length results);
        if !firing > 0 then exit 1
    | Some path -> (
        match Fuzz.replay path with
        | Error msg ->
            Printf.eprintf "replay failed: %s\n" msg;
            exit 2
        | Ok (name, []) ->
            Printf.printf "%s: %s is clean — bug no longer reproduces\n" path
              name;
            exit 0
        | Ok (name, violations) ->
            Printf.printf "%s: %s still fails %d oracle check(s)\n" path name
              (List.length violations);
            print_violations violations;
            exit 1)
    | None ->
        let should_stop =
          match budget with
          | None -> fun () -> false
          | Some s ->
              let deadline = Unix.gettimeofday () +. s in
              fun () -> Unix.gettimeofday () > deadline
        in
        let report =
          Fuzz.campaign ?jobs ~should_stop ~dir ~save:(not no_save) ~seeds ()
        in
        Printf.printf "fuzz: %d/%d seeds x %d schedulers, %d finding(s)\n"
          report.Fuzz.seeds_run report.Fuzz.seeds_requested
          report.Fuzz.schedulers_run
          (List.length report.Fuzz.findings);
        List.iter
          (fun (f, path) ->
            Format.printf "@[<v>%a@]@." Fuzz.pp_finding f;
            Option.iter
              (fun p ->
                Printf.printf "  witness: %s\n  replay:  %s\n" p
                  (Fuzz.replay_command ~path:p))
              path)
          report.Fuzz.findings;
        if report.Fuzz.findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random instances through every scheduler, \
          cross-checked by validation, crash-simulation, serialization and \
          selection oracles; counterexamples are shrunk to minimal \
          witnesses")
    Term.(
      const run $ seeds_arg $ budget_arg $ dir_arg $ no_save_arg $ replay_arg
      $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* tournament                                                          *)

let tournament_cmd =
  let module Fuzz = Ftsched_fuzz.Fuzz in
  let module Tournament = Ftsched_tournament.Tournament in
  let pairs_arg =
    Arg.(
      value & opt (some pos_int_conv) None
      & info [ "pairs" ] ~docv:"N"
          ~doc:
            "Search only the first $(docv) ordered policy pairs (default: \
             all pairs of the selected policies).")
  in
  let iters_arg =
    Arg.(
      value & opt pos_int_conv 200
      & info [ "iters" ] ~docv:"N"
          ~doc:"Annealing proposals per policy pair.")
  in
  let temp_arg =
    Arg.(
      value & opt nonneg_float_conv 0.25
      & info [ "temp" ] ~docv:"T"
          ~doc:
            "Initial annealing temperature; cools geometrically to 2% of \
             $(docv).")
  in
  let metric_conv =
    let parse s =
      match Tournament.metric_of_name s with
      | Some m -> Ok m
      | None ->
          Error (`Msg (Printf.sprintf "unknown metric %S (guaranteed | crash-worst)" s))
    in
    Arg.conv (parse, fun ppf m -> Fmt.string ppf (Tournament.metric_name m))
  in
  let metric_arg =
    Arg.(
      value & opt metric_conv Tournament.Guaranteed
      & info [ "metric" ] ~docv:"METRIC"
          ~doc:
            "Makespan metric: $(b,guaranteed) scores the planned bound M*, \
             $(b,crash-worst) the worst strict-policy crash execution over \
             every exactly-eps failure subset (defeats score +inf).")
  in
  let baseline_arg =
    Arg.(
      value & opt int 0
      & info [ "baseline" ] ~docv:"N"
          ~doc:
            "Also score $(docv) plain random instances per pair (independent \
             RNG stream) and report the best ratio they reach — the \
             yardstick the annealer must beat.")
  in
  let dir_arg =
    Arg.(
      value & opt string "_tournament"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Directory for witness files.")
  in
  let no_save_arg =
    Arg.(
      value & flag & info [ "no-save" ] ~doc:"Do not write witness files.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"PATH"
          ~doc:"Write the dominance report as JSON to $(docv).")
  in
  let policies_arg =
    Arg.(
      value & opt (some string) None
      & info [ "policies" ] ~docv:"A,B,..."
          ~doc:
            "Comma-separated policy names to restrict the tournament to \
             (default: the full eleven-policy registry).")
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:
            "Re-score a saved witness (or every tournament $(b,.case) file \
             in a directory) instead of searching; exits non-zero unless \
             the stored ratio is reproduced bit-for-bit.")
  in
  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  in
  let write_json ~path report ~digest witnesses =
    let module T = Tournament in
    let buf = Buffer.create 4096 in
    Printf.bprintf buf
      "{\n  \"metric\": \"%s\",\n  \"seed\": %d,\n  \"iters\": %d,\n  \
       \"digest\": \"%s\",\n  \"pairs\": [\n"
      (T.metric_name report.T.metric)
      report.T.seed report.T.iters digest;
    let n = List.length report.T.pair_reports in
    List.iteri
      (fun i p ->
        let witness =
          match List.assq_opt p witnesses with
          | Some path -> Printf.sprintf "\"%s\"" (json_escape path)
          | None -> "null"
        in
        let baseline =
          match p.T.baseline_ratio with
          | Some b -> Printf.sprintf "\"%h\"" b
          | None -> "null"
        in
        Printf.bprintf buf
          "    {\"a\": \"%s\", \"b\": \"%s\", \"ratio\": \"%h\", \
           \"baseline\": %s, \"evaluated\": %d, \"accepted\": %d, \
           \"witness\": %s}%s\n"
          (json_escape p.T.policy_a) (json_escape p.T.policy_b) p.T.best_ratio
          baseline p.T.evaluated p.T.accepted witness
          (if i = n - 1 then "" else ","))
      report.T.pair_reports;
    Buffer.add_string buf "  ]\n}\n";
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Buffer.output_buffer oc buf)
  in
  let replay_one path =
    match Tournament.replay path with
    | Ok r ->
        Printf.printf "%s: ratio %h reproduced\n" path r;
        true
    | Error msg ->
        Printf.printf "%s: REPLAY FAILED: %s\n" path msg;
        false
  in
  let run pairs iters temp metric baseline dir no_save json policies replay
      seed jobs =
    apply_jobs jobs;
    match replay with
    | Some path when Sys.file_exists path && Sys.is_directory path ->
        (* a corpus may mix in other witness kinds: skip those, but
           keep unreadable files so they fail loudly *)
        let cases =
          Sys.readdir path |> Array.to_list |> List.sort compare
          |> List.filter (fun f -> Filename.check_suffix f ".case")
          |> List.map (Filename.concat path)
          |> List.filter (fun p ->
                 match Fuzz.read_witness ~path:p with
                 | Fuzz.Tournament _ | (exception _) -> true
                 | _ -> false)
        in
        if cases = [] then begin
          Printf.printf "%s: no .case files to replay\n" path;
          exit 0
        end;
        let ok = List.fold_left (fun acc p -> replay_one p && acc) true cases in
        if not ok then exit 1
    | Some path -> if not (replay_one path) then exit 1
    | None ->
        let policies =
          match policies with
          | None -> Schedulers.all
          | Some names ->
              String.split_on_char ',' names
              |> List.map String.trim
              |> List.filter (fun s -> s <> "")
              |> List.map (fun name ->
                     match Schedulers.find name with
                     | Some s -> s
                     | None ->
                         Printf.eprintf "unknown policy %S\n" name;
                         exit 2)
        in
        let report =
          Tournament.campaign ?jobs ~policies ?pairs ~iters ~temp ~metric
            ~baseline ~seed ()
        in
        List.iter
          (fun p -> Format.printf "@[%a@]@." Tournament.pp_pair_report p)
          report.Tournament.pair_reports;
        Table.print (Tournament.matrix_table report);
        let digest = Tournament.report_digest report in
        Printf.printf "digest: %s\n" digest;
        let witnesses =
          if no_save then []
          else Tournament.save_witnesses ~dir report
        in
        List.iter
          (fun (_, path) ->
            Printf.printf "witness: %s\n  replay:  %s\n" path
              (Tournament.replay_command ~path))
          witnesses;
        Option.iter
          (fun path -> write_json ~path report ~digest witnesses)
          json
  in
  Cmd.v
    (Cmd.info "tournament"
       ~doc:
         "Instance-space adversarial tournament: per ordered policy pair, a \
          simulated annealer mutates DAG shape, costs, platform and eps to \
          maximize the makespan ratio M_A/M_B; incumbents are saved as \
          replayable witnesses and summarized as a pairwise-dominance \
          matrix (A8)")
    Term.(
      const run $ pairs_arg $ iters_arg $ temp_arg $ metric_arg $ baseline_arg
      $ dir_arg $ no_save_arg $ json_arg $ policies_arg $ replay_arg
      $ seed_arg $ jobs_arg)

let () =
  let info =
    Cmd.info "ftsched" ~version:"1.0.0"
      ~doc:
        "Fault-tolerant scheduling of precedence task graphs on heterogeneous \
         platforms (FTSA / MC-FTSA / FTBAR)"
  in
  (* A file that cannot be opened, read or written is bad outside input:
     one line and exit 2.  Any other exception is an internal error. *)
  exit
    (try
       Cmd.eval ~catch:false
         (Cmd.group info
            [
              gen_cmd; schedule_cmd; simulate_cmd; bicriteria_cmd;
              reliability_cmd; inspect_cmd; experiment_cmd; fuzz_cmd;
              stream_cmd; serve_cmd; tournament_cmd;
            ])
     with
    | Sys_error msg ->
        prerr_endline ("ftsched: " ^ msg);
        2
    | e ->
        let bt = Printexc.get_raw_backtrace () in
        Printf.eprintf "ftsched: internal error, uncaught exception:\n%s\n%s%!"
          (Printexc.to_string e)
          (Printexc.raw_backtrace_to_string bt);
        Cmd.Exit.internal_error)

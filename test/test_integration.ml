(* End-to-end integration tests: every scheduler on every classic graph
   family across a grid of replication levels, fully validated and
   crash-simulated — the whole pipeline in one sweep. *)

module Classic = Ftsched_dag.Classic
module Generators = Ftsched_dag.Generators
module Dot = Ftsched_dag.Dot
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Bicriteria = Ftsched_core.Bicriteria
module Ftbar = Ftsched_baseline.Ftbar
module Heft = Ftsched_baseline.Heft
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Event_sim = Ftsched_sim.Event_sim
open Helpers

let m = 6

let classic_instances () =
  let rng = Rng.create ~seed:77 in
  List.map
    (fun (name, dag) ->
      let platform = Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 () in
      (name, Instance.random_exec rng ~dag ~platform ()))
    [
      ("gauss", Classic.gaussian_elimination ~size:6 ());
      ("fft", Classic.fft ~points:8 ());
      ("wavefront", Classic.wavefront ~rows:4 ~cols:4 ());
      ("diamond", Classic.diamond ~layers:4 ());
      ("forkjoin", Generators.fork_join rng ~stages:2 ~width:4 ());
      ("layered", Generators.layered rng ~n_tasks:35 ());
    ]

(* Grid sweep: every algorithm at eps in {0,1,2} on every family must
   produce a valid schedule whose crash replay under no failures equals
   the lower bound. *)
let test_grid_validity () =
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun eps ->
          let schedules =
            [
              (Printf.sprintf "%s/ftsa/%d" name eps, Ftsa.schedule inst ~eps);
              (Printf.sprintf "%s/mc/%d" name eps, Mc_ftsa.schedule inst ~eps);
              ( Printf.sprintf "%s/mcb/%d" name eps,
                Mc_ftsa.schedule ~strategy:Mc_ftsa.Bottleneck inst ~eps );
              (Printf.sprintf "%s/ftbar/%d" name eps, Ftbar.schedule inst ~npf:eps);
            ]
          in
          List.iter
            (fun (label, s) ->
              assert_valid label s;
              let l = Crash_exec.latency_exn s Scenario.none in
              if
                Float.abs
                  (l -. Ftsched_schedule.Schedule.latency_lower_bound s)
                > 1e-6
              then Alcotest.failf "%s: crash(none) <> M*" label)
            schedules)
        [ 0; 1; 2 ])
    (classic_instances ())

(* FTSA end-to-end fault tolerance holds on every family, exhaustively. *)
let test_grid_survivability () =
  List.iter
    (fun (name, inst) ->
      List.iter
        (fun eps ->
          let s = Ftsa.schedule inst ~eps in
          if not (survives_eps_subsets s) then
            Alcotest.failf "%s eps=%d: FTSA defeated" name eps;
          let f = Ftbar.schedule inst ~npf:eps in
          if not (survives_eps_subsets f) then
            Alcotest.failf "%s eps=%d: FTBAR defeated" name eps)
        [ 1; 2 ])
    (classic_instances ())

(* Crash replay at exactly eps failures stays within the guaranteed
   bound on every family, for both executors. *)
let test_grid_crash_bounds () =
  List.iter
    (fun (name, inst) ->
      let eps = 2 in
      let s = Ftsa.schedule inst ~eps in
      let ub = Ftsched_schedule.Schedule.latency_upper_bound s in
      List.iter
        (fun sc ->
          let a = Crash_exec.latency_exn s sc in
          if a > ub +. 1e-6 then
            Alcotest.failf "%s: crash latency %g above bound %g" name a ub;
          match (Event_sim.run_crash s sc).Event_sim.latency with
          | Some b ->
              if a <> b then
                Alcotest.failf "%s: executors disagree (%h vs %h)" name a b
          | None -> Alcotest.failf "%s: event sim defeated" name)
        (Scenario.all_of_size ~m ~count:eps))
    (classic_instances ())

(* Replication economics across the grid: message counts obey the
   e(eps+1)^2 vs e(eps+1) story of §4.2. *)
let test_grid_message_counts () =
  List.iter
    (fun (_name, inst) ->
      let g = Instance.dag inst in
      let e = Ftsched_dag.Dag.n_edges g in
      List.iter
        (fun eps ->
          let ftsa = Ftsa.schedule inst ~eps in
          let mc = Mc_ftsa.schedule inst ~eps in
          let mf = Ftsched_schedule.Schedule.inter_processor_messages ftsa in
          let mm = Ftsched_schedule.Schedule.inter_processor_messages mc in
          check_bool "ftsa quadratic cap" true (mf <= e * (eps + 1) * (eps + 1));
          check_bool "mc linear cap" true (mm <= e * (eps + 1)))
        [ 1; 2; 3 ])
    (classic_instances ())

(* Bicriteria pipeline: the eps found for a budget indeed fits it, and
   asking for that latency with eps+1 deadlines usually fails. *)
let test_bicriteria_roundtrip () =
  List.iter
    (fun (_name, inst) ->
      let base = Ftsa.fault_free inst in
      let budget =
        2. *. Ftsched_schedule.Schedule.latency_lower_bound base
      in
      match Bicriteria.max_supported_failures inst ~latency:budget with
      | None -> () (* possible: even eps=0 upper bound may exceed budget *)
      | Some (eps, s) ->
          check_bool "fits budget" true
            (Ftsched_schedule.Schedule.latency_upper_bound s <= budget);
          check_int "eps matches" eps (Ftsched_schedule.Schedule.eps s))
    (classic_instances ())

(* The full toolchain on one realistic pipeline: generate, export DOT,
   schedule, validate, replay timed failures. *)
let test_full_pipeline () =
  let rng = Rng.create ~seed:123 in
  let dag = Generators.layered rng ~n_tasks:50 () in
  let dot = Dot.to_dot dag in
  check_bool "dot nonempty" true (String.length dot > 100);
  let platform = Platform.random rng ~m:8 ~delay_lo:0.5 ~delay_hi:1.0 () in
  let inst = Instance.random_exec rng ~dag ~platform () in
  let s = Ftsa.schedule inst ~eps:2 in
  assert_valid "pipeline" s;
  let horizon = Ftsched_schedule.Schedule.latency_upper_bound s in
  for trial = 0 to 9 do
    let timed =
      Scenario.random_timed rng ~m:8 ~count:2 ~horizon
    in
    match (Event_sim.run_timed s timed).Event_sim.latency with
    | Some l ->
        if l > horizon +. 1e-6 then
          Alcotest.failf "trial %d: latency %g above guarantee %g" trial l
            horizon
    | None -> Alcotest.failf "trial %d: defeated by 2 timed failures" trial
  done

(* Mutation fuzzing of the validators: random corruptions of valid
   schedules must be detected. *)
let prop_validators_catch_mutations =
  QCheck.Test.make ~name:"validators catch random schedule corruption"
    ~count:120
    QCheck.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, kind) ->
      let rng = Rng.create ~seed in
      let inst = random_instance ~seed ~n_tasks:20 ~m:5 () in
      let eps = 1 + Rng.int rng 2 in
      let s = Ftsa.schedule ~seed inst ~eps in
      let module S = Ftsched_schedule.Schedule in
      let v = Instance.n_tasks inst in
      let reps = Array.init v (fun t -> Array.copy (S.replicas s t)) in
      let task = Rng.int rng v in
      let k = Rng.int rng (eps + 1) in
      let r = reps.(task).(k) in
      let mutated =
        match kind with
        | 0 ->
            (* move a replica onto a sibling's processor *)
            let other = reps.(task).((k + 1) mod (eps + 1)) in
            { r with S.proc = other.S.proc }
        | 1 ->
            (* run before time zero *)
            let d = r.S.finish -. r.S.start in
            { r with S.start = -10_000.; finish = -10_000. +. d }
        | 2 ->
            (* stretch the execution *)
            { r with S.finish = r.S.finish +. 1. }
        | _ ->
            (* break the pessimistic ordering *)
            { r with S.pess_start = -1.; pess_finish = r.S.pess_finish }
      in
      QCheck.assume (mutated <> r);
      reps.(task).(k) <- mutated;
      match
        S.create ~instance:inst ~eps ~replicas:reps ~comm:(S.comm s)
      with
      | exception Invalid_argument _ -> true (* caught at construction *)
      | s' -> Ftsched_schedule.Validate.check s' <> Ok ())

(* The CLI binary end-to-end (skipped when the binary is not built). *)
let cli_path =
  List.find_opt Sys.file_exists
    [
      "../bin/ftsched.exe" (* cwd = _build/default/test under dune runtest *);
      "_build/default/bin/ftsched.exe" (* cwd = repo root *);
    ]

let run_cli args =
  match cli_path with
  | None -> 0
  | Some path ->
      Sys.command (Filename.quote path ^ " " ^ args ^ " >/dev/null 2>/dev/null")

let test_cli_binary () =
  match cli_path with
  | None -> () (* binary not built in this configuration *)
  | Some _ ->
      check_int "schedule" 0
        (run_cli "schedule --algo mc-ftsa --eps 1 --tasks 25 -m 5 --seed 3");
      check_int "simulate" 0
        (run_cli "simulate --eps 1 --crashes 1 --tasks 25 -m 5 --seed 3");
      check_int "bicriteria" 0
        (run_cli "bicriteria --latency 1e9 --tasks 25 -m 5 --seed 3");
      check_int "reliability" 0
        (run_cli "reliability --eps 1 --tasks 25 -m 5 --p-fail 0.1 --seed 3");
      check_bool "rejects bad kind" true (run_cli "gen --kind nonsense" <> 0);
      let tmp = Filename.temp_file "ftsched" ".sched" in
      check_int "save" 0
        (run_cli
           (Printf.sprintf "schedule --eps 1 --tasks 20 -m 4 --seed 5 --save %s"
              (Filename.quote tmp)));
      check_int "inspect" 0 (run_cli ("inspect " ^ Filename.quote tmp));
      Sys.remove tmp

let () =
  Alcotest.run "integration"
    [
      ( "grid",
        [
          Alcotest.test_case "validity x families x eps" `Slow test_grid_validity;
          Alcotest.test_case "survivability" `Slow test_grid_survivability;
          Alcotest.test_case "crash bounds + executor agreement" `Slow
            test_grid_crash_bounds;
          Alcotest.test_case "message counts" `Slow test_grid_message_counts;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "bicriteria roundtrip" `Slow test_bicriteria_roundtrip;
          Alcotest.test_case "full pipeline with timed failures" `Slow
            test_full_pipeline;
        ] );
      ( "fuzz",
        [ quick prop_validators_catch_mutations ] );
      ( "cli",
        [ Alcotest.test_case "binary end-to-end" `Slow test_cli_binary ] );
    ]

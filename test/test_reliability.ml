(* Tests for Ftsched_reliability. *)

module R = Ftsched_reliability.Reliability
module Crash_exec = Ftsched_sim.Crash_exec
module Scenario = Ftsched_sim.Scenario
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Schedule = Ftsched_schedule.Schedule
open Helpers

let small_schedule ?(eps = 1) ?(seed = 3) () =
  let inst = random_instance ~n_tasks:25 ~m:5 ~seed () in
  Ftsa.schedule ~seed inst ~eps

let test_binomial_extremes () =
  let s = small_schedule () in
  check_float "p=0" 1. (R.binomial_bound s ~p_fail:0.);
  check_float "p=1" 0. (R.binomial_bound s ~p_fail:1.)

let test_binomial_known_value () =
  (* m=5, eps=1, p=0.1: C(5,0)·0.9^5 + C(5,1)·0.1·0.9^4 *)
  let s = small_schedule ~eps:1 () in
  let expected = (0.9 ** 5.) +. (5. *. 0.1 *. (0.9 ** 4.)) in
  check_float_loose "binomial" expected (R.binomial_bound s ~p_fail:0.1)

let test_binomial_monotone_in_eps () =
  let inst = random_instance ~n_tasks:25 ~m:5 ~seed:4 () in
  let r eps = R.binomial_bound (Ftsa.schedule inst ~eps) ~p_fail:0.2 in
  check_bool "more replicas, more reliability" true
    (r 0 < r 1 && r 1 < r 2 && r 2 < r 3)

let test_exact_at_least_bound () =
  (* the exact reliability also counts lucky survivals beyond eps *)
  let s = small_schedule ~eps:1 () in
  let exact = R.exact s Crash_exec.Strict ~p_fail:0.15 in
  let bound = R.binomial_bound s ~p_fail:0.15 in
  check_bool "exact >= bound for all-to-all" true (exact >= bound -. 1e-9)

let test_exact_extremes () =
  let s = small_schedule () in
  check_float "p=0 certain" 1. (R.exact s Crash_exec.Strict ~p_fail:0.);
  check_float "p=1 hopeless" 0. (R.exact s Crash_exec.Strict ~p_fail:1.)

let test_exact_rejects_big_platform () =
  let inst = random_instance ~n_tasks:30 ~m:17 ~seed:5 () in
  let s = Ftsa.schedule inst ~eps:1 in
  Alcotest.check_raises "m > 16"
    (Invalid_argument "Reliability.exact: platform too large (m > 16)")
    (fun () -> ignore (R.exact s Crash_exec.Strict ~p_fail:0.1))

let test_monte_carlo_converges_to_exact () =
  let s = small_schedule ~eps:1 () in
  let exact = R.exact s Crash_exec.Strict ~p_fail:0.2 in
  let rng = Rng.create ~seed:9 in
  let est = R.monte_carlo rng s Crash_exec.Strict ~p_fail:0.2 ~trials:20_000 in
  check_bool "within 4 sigma" true
    (Float.abs (est.R.mean -. exact) <= Float.max (4. *. est.R.stderr) 0.02)

let test_strict_vs_reroute_policies () =
  (* for an all-to-all plan the two policies coincide exactly *)
  let s = small_schedule ~eps:2 () in
  check_float "all-to-all equal"
    (R.exact s Crash_exec.Strict ~p_fail:0.25)
    (R.exact s Crash_exec.Reroute ~p_fail:0.25);
  (* for MC-FTSA, rerouting can only help *)
  let inst = random_instance ~n_tasks:30 ~m:6 ~seed:6 () in
  let mc = Mc_ftsa.schedule inst ~eps:2 in
  check_bool "reroute >= strict" true
    (R.exact mc Crash_exec.Reroute ~p_fail:0.2
    >= R.exact mc Crash_exec.Strict ~p_fail:0.2 -. 1e-9)

let test_mc_strict_reliability_collapse () =
  (* the headline finding: strict MC-FTSA reliability is essentially the
     probability that no processor fails at all *)
  let inst = random_instance ~n_tasks:40 ~m:6 ~seed:7 () in
  let mc = Mc_ftsa.schedule inst ~eps:2 in
  let p_fail = 0.2 in
  let none_fail = (1. -. p_fail) ** 6. in
  let strict = R.exact mc Crash_exec.Strict ~p_fail in
  check_bool "close to the no-failure mass" true
    (strict < none_fail +. 0.15);
  let ftsa = Ftsa.schedule inst ~eps:2 in
  check_bool "far below FTSA" true
    (strict < R.exact ftsa Crash_exec.Strict ~p_fail -. 0.2)

let test_survives_reroute_semantics () =
  let inst = random_instance ~n_tasks:25 ~m:5 ~seed:8 () in
  let mc = Mc_ftsa.schedule inst ~eps:1 in
  (* reroute survival = every task keeps a live replica; killing one
     processor can never defeat an eps=1 schedule *)
  for p = 0 to 4 do
    check_bool "single failure survivable" true
      (Crash_exec.survives ~policy:Crash_exec.Reroute mc
         (Scenario.of_list [ p ]))
  done

let test_mission_no_failures () =
  let s = small_schedule ~eps:1 () in
  let rng = Rng.create ~seed:10 in
  let est, lat = R.mission rng s ~rate:0. ~trials:50 () in
  check_float "always succeeds" 1. est.R.mean;
  match lat with
  | Some l -> check_float "latency = M*" (Schedule.latency_lower_bound s) l
  | None -> Alcotest.fail "latencies must exist"

let test_mission_high_rate_fails () =
  let s = small_schedule ~eps:1 () in
  let rng = Rng.create ~seed:11 in
  (* mean time to failure vastly below the schedule length *)
  let rate = 1000. /. Schedule.latency_lower_bound s in
  let est, _ = R.mission rng s ~rate ~trials:100 () in
  check_bool "mostly fails" true (est.R.mean < 0.2)

let test_mission_monotone_in_rate () =
  let s = small_schedule ~eps:2 () in
  let run rate =
    let rng = Rng.create ~seed:12 in
    (fst (R.mission rng s ~rate ~trials:400 ())).R.mean
  in
  let lb = Schedule.latency_lower_bound s in
  let low = run (0.01 /. lb) and high = run (10. /. lb) in
  check_bool "higher rate, lower reliability" true (high <= low)

let test_estimate_stderr () =
  let s = small_schedule () in
  let rng = Rng.create ~seed:13 in
  let est = R.monte_carlo rng s Crash_exec.Strict ~p_fail:0.3 ~trials:1000 in
  check_int "trials recorded" 1000 est.R.trials;
  check_bool "stderr sane" true (est.R.stderr >= 0. && est.R.stderr < 0.05)

let () =
  Alcotest.run "reliability"
    [
      ( "binomial",
        [
          Alcotest.test_case "extremes" `Quick test_binomial_extremes;
          Alcotest.test_case "known value" `Quick test_binomial_known_value;
          Alcotest.test_case "monotone in eps" `Quick test_binomial_monotone_in_eps;
        ] );
      ( "exact",
        [
          Alcotest.test_case "at least the bound" `Quick test_exact_at_least_bound;
          Alcotest.test_case "extremes" `Quick test_exact_extremes;
          Alcotest.test_case "rejects big platforms" `Quick
            test_exact_rejects_big_platform;
          Alcotest.test_case "policies" `Quick test_strict_vs_reroute_policies;
          Alcotest.test_case "MC strict collapse (paper finding)" `Quick
            test_mc_strict_reliability_collapse;
          Alcotest.test_case "reroute survival semantics" `Quick
            test_survives_reroute_semantics;
        ] );
      ( "monte-carlo",
        [
          Alcotest.test_case "converges to exact" `Slow
            test_monte_carlo_converges_to_exact;
          Alcotest.test_case "stderr" `Quick test_estimate_stderr;
        ] );
      ( "mission",
        [
          Alcotest.test_case "no failures" `Quick test_mission_no_failures;
          Alcotest.test_case "high rate fails" `Quick test_mission_high_rate_fails;
          Alcotest.test_case "monotone in rate" `Slow test_mission_monotone_in_rate;
        ] );
    ]

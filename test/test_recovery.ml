(* Online recovery executor: failure detection, re-mapping, degradation. *)

open Helpers
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Event_sim = Ftsched_sim.Event_sim
module Metrics = Ftsched_schedule.Metrics
module Detector = Ftsched_recovery.Detector
module Recovery = Ftsched_recovery.Recovery
module Recovery_ref = Ftsched_oracle.Recovery_ref

(* ------------------------------------------------------------------ *)
(* Detector *)

let test_detector_timeline () =
  let det =
    Detector.create ~fail_times:[| 3.; infinity; 1.; 3. |] ~delta:0.5
  in
  Alcotest.(check (list (pair (float 1e-9) (list int))))
    "instants grouped and sorted"
    [ (1.5, [ 2 ]); (3.5, [ 0; 3 ]) ]
    (Detector.instants det);
  check_int "failures" 3 (Detector.n_failures det);
  check_bool "not yet known" false (Detector.known_dead det ~now:1.4 2);
  check_bool "known from f+delta" true (Detector.known_dead det ~now:1.5 2);
  check_bool "survivor never known dead" false
    (Detector.known_dead det ~now:1e9 1)

let test_detector_rejects_negative_delta () =
  check_bool "negative delta rejected" true
    (try
       ignore (Detector.create ~fail_times:[| 1. |] ~delta:(-1.));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Event_sim timed-failure edge cases *)

(* A processor dying exactly at a replica's finish instant does not kill
   the completion (the loss condition is strictly [finish > fail]). *)
let test_death_exactly_at_finish () =
  let inst = random_instance ~seed:31 ~n_tasks:20 ~m:4 () in
  let s = Ftsa.schedule ~seed:31 inst ~eps:1 in
  let fault_free = Event_sim.run s ~fail_times:(Array.make 4 infinity) in
  (* pick some replica and fail its processor exactly at its finish *)
  let r0 = Schedule.replica s 0 0 in
  let finish =
    match fault_free.Event_sim.outcomes.(0).(0) with
    | Event_sim.Completed { finish; _ } -> finish
    | Event_sim.Lost -> Alcotest.fail "fault-free replica must complete"
  in
  let fail_times = Array.make 4 infinity in
  fail_times.(r0.Schedule.proc) <- finish;
  let r = Event_sim.run s ~fail_times in
  (match r.Event_sim.outcomes.(0).(0) with
  | Event_sim.Completed { finish = f; _ } ->
      check_float "completes with same finish" finish f
  | Event_sim.Lost -> Alcotest.fail "death exactly at finish must not kill");
  (* an instant earlier, the replica is cut down *)
  fail_times.(r0.Schedule.proc) <- finish -. 1e-9;
  let r = Event_sim.run s ~fail_times in
  check_bool "death before finish kills" true
    (r.Event_sim.outcomes.(0).(0) = Event_sim.Lost)

(* Mid-execution failure under the duplex port model: the run still
   completes (one failure, eps = 1, all-to-all plan) and every replica of
   the dead processor respects the cut-off invariant. *)
let test_duplex_mid_execution_failure () =
  let inst = random_instance ~seed:32 ~n_tasks:25 ~m:5 () in
  let s = Ftsa.schedule ~seed:32 inst ~eps:1 in
  let horizon = Schedule.latency_upper_bound s in
  let dead = 2 and at = horizon /. 3. in
  let fail_times = Array.make 5 infinity in
  fail_times.(dead) <- at;
  let r = Event_sim.run ~network:(Event_sim.Duplex_ports 1) s ~fail_times in
  check_bool "completes despite mid-run failure" true
    (r.Event_sim.latency <> None);
  Array.iteri
    (fun task row ->
      Array.iteri
        (fun k outcome ->
          if (Schedule.replica s task k).Schedule.proc = dead then
            match outcome with
            | Event_sim.Completed { finish; _ } ->
                check_bool "completed on dead proc => finished in time" true
                  (finish <= at)
            | Event_sim.Lost -> ())
        row)
    r.Event_sim.outcomes

(* A NaN crash instant compares false against every time, so it would
   read as "never fails": every entry point rejects it. *)
let test_nan_fail_time_rejected () =
  let inst = random_instance ~seed:37 ~n_tasks:40 ~m:4 () in
  let s = Ftsa.schedule ~seed:37 inst ~eps:1 in
  let fail_times = [| nan; infinity; infinity; infinity |] in
  let timed = [ { Scenario.proc = 0; at = nan } ] in
  let rejects what f =
    check_bool (what ^ " rejects a NaN crash instant") true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "Engine.create" (fun () -> Event_sim.Engine.create s ~fail_times);
  rejects "Event_sim.run" (fun () -> Event_sim.run s ~fail_times);
  rejects "Event_sim.run_timed" (fun () -> Event_sim.run_timed s timed);
  rejects "Recovery.run" (fun () -> Recovery.run s ~fail_times);
  rejects "Recovery.run_timed" (fun () -> Recovery.run_timed s timed)

(* ------------------------------------------------------------------ *)
(* Recovery executor basics *)

let test_recovery_no_failures_is_lower_bound () =
  let inst = random_instance ~seed:33 () in
  let s = Ftsa.schedule ~seed:33 inst ~eps:2 in
  let o = Recovery.run s ~fail_times:(Array.make 6 infinity) in
  (match o.Recovery.result.Event_sim.latency with
  | Some l -> check_float "M*" (Schedule.latency_lower_bound s) l
  | None -> Alcotest.fail "no failures cannot defeat");
  check_bool "complete" true o.Recovery.degraded.Metrics.complete;
  check_int "no injections" 0 o.Recovery.injections;
  check_int "no kills" 0 o.Recovery.kills;
  check_int "no detections" 0 o.Recovery.detected_failures

(* Within the static tolerance (<= eps crash-at-zero failures, all-to-all
   plan) recovery has nothing to do and must agree with the reroute crash
   executor. *)
let test_recovery_agrees_with_reroute_within_eps () =
  List.iter
    (fun seed ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      let eps = 2 in
      let s = Ftsa.schedule ~seed inst ~eps in
      List.iter
        (fun sc ->
          let expected = Crash_exec.latency_exn ~policy:Reroute s sc in
          let fail_times = Array.make 5 infinity in
          Array.iter (fun p -> fail_times.(p) <- 0.) sc.Scenario.failed;
          List.iter
            (fun rounds ->
              let o = Recovery.run ~rounds s ~fail_times in
              match o.Recovery.result.Event_sim.latency with
              | Some l ->
                  check_float "recovery = reroute crash executor" expected l
              | None -> Alcotest.fail "defeated within eps")
            [ 0; 5 ])
        (Scenario.all_of_size ~m:5 ~count:eps))
    [ 101; 102 ]

(* The pinned regression promised in the issue: a concrete scenario where
   static MC-FTSA is defeated by eps failures but MC-FTSA + recovery
   completes. *)
let test_mc_defeated_but_recovery_completes () =
  let inst = random_instance ~seed:42 ~n_tasks:60 ~m:8 () in
  let s = Mc_ftsa.schedule ~seed:42 inst ~eps:2 in
  let sc =
    match
      List.find_opt
        (fun sc ->
          (Crash_exec.run ~policy:Crash_exec.Strict s sc).Crash_exec.latency
          = None)
        (Scenario.all_of_size ~m:8 ~count:2)
    with
    | Some sc -> sc
    | None -> Alcotest.fail "seed 42 must yield a defeating 2-subset"
  in
  (* static execution (event simulator, strict plan) is defeated … *)
  let static = Event_sim.run_crash s sc in
  check_bool "static MC-FTSA defeated" true (static.Event_sim.latency = None);
  (* … but the online recovery executor completes the graph *)
  let fail_times = Array.make 8 infinity in
  Array.iter (fun p -> fail_times.(p) <- 0.) sc.Scenario.failed;
  let o = Recovery.run s ~fail_times in
  check_bool "recovery completes" true o.Recovery.degraded.Metrics.complete;
  check_bool "recovery reports a latency" true
    (o.Recovery.result.Event_sim.latency <> None)

(* Link failures: with loss = 1 and no retries every planned message is
   lost, so any static cross-processor schedule is defeated — but the
   recovery runtime's controller-priced re-sends stay reliable, so it
   still completes the graph instead of hanging. *)
let test_static_lost_but_recovery_completes_under_loss () =
  let inst = random_instance ~seed:9 ~n_tasks:30 ~m:5 () in
  let s = Mc_ftsa.schedule ~seed:9 inst ~eps:1 in
  let faults = Scenario.lossy ~loss:1. ~retries:0 ~seed:1 () in
  let fail_times = Array.make 5 infinity in
  let static = Event_sim.run ~faults s ~fail_times in
  check_bool "static MC-FTSA defeated by total loss" true
    (static.Event_sim.latency = None);
  check_bool "losses counted" true (static.Event_sim.lost_messages > 0);
  let o = Recovery.run ~faults s ~fail_times in
  check_bool "recovery completes under total loss" true
    o.Recovery.degraded.Metrics.complete;
  check_bool "recovery reports a latency" true
    (o.Recovery.result.Event_sim.latency <> None)

(* Beyond eps failures: no exception, graceful degradation with partial
   metrics. *)
let test_degrades_beyond_eps_without_raising () =
  let inst = random_instance ~seed:34 ~n_tasks:25 ~m:5 () in
  let s = Ftsa.schedule ~seed:34 inst ~eps:1 in
  (* kill every processor mid-run: nothing can fully complete *)
  let horizon = Schedule.latency_upper_bound s in
  let fail_times = Array.init 5 (fun p -> horizon /. 8. *. float_of_int (p + 1)) in
  let o = Recovery.run ~delta:(horizon /. 100.) s ~fail_times in
  let d = o.Recovery.degraded in
  check_bool "not complete" false d.Metrics.complete;
  check_bool "latency is None" true (o.Recovery.result.Event_sim.latency = None);
  check_bool "partial progress is reported" true
    (d.Metrics.completed_tasks >= 0 && d.Metrics.completed_tasks < d.Metrics.total_tasks);
  (match d.Metrics.partial_latency with
  | Some l -> check_bool "partial latency positive" true (l > 0.)
  | None -> check_int "no sink completed" 0 (List.length d.Metrics.completed_sinks))

(* Degradation is monotone in the number of survivors on a pinned
   prefix-kill sweep; with at least one survivor the run is complete. *)
let test_degradation_monotone_in_survivors () =
  let m = 5 in
  let inst = random_instance ~seed:35 ~n_tasks:30 ~m () in
  let s = Ftsa.schedule ~seed:35 inst ~eps:1 in
  let horizon = Schedule.latency_upper_bound s in
  let completed k =
    (* processors 0..k-1 die at staggered instants *)
    let fail_times =
      Array.init m (fun p ->
          if p < k then horizon /. 10. *. float_of_int (p + 2) else infinity)
    in
    let o = Recovery.run ~delta:(horizon /. 50.) s ~fail_times in
    if k < m then
      check_bool
        (Printf.sprintf "complete with %d survivors" (m - k))
        true o.Recovery.degraded.Metrics.complete;
    o.Recovery.degraded.Metrics.completed_tasks
  in
  let counts = List.init (m + 1) completed in
  ignore
    (List.fold_left
       (fun prev c ->
         check_bool "completed tasks never grow with more failures" true
           (c <= prev);
         c)
       max_int counts)

(* A plan on 5 processors (FTSA or MC-FTSA, eps = 1), 1-4 timed
   crashes up to 1.2 x its horizon, and a detection latency of 0, 0.1 or
   0.2 horizons. *)
let timed_case =
  QCheck.(triple (int_range 0 10000) (int_range 1 4) (int_range 0 2))

let timed_inputs (seed, count, delta_scale) =
  let m = 5 in
  let inst = random_instance ~seed ~n_tasks:20 ~m () in
  let eps = 1 in
  let s =
    if seed mod 2 = 0 then Ftsa.schedule ~seed inst ~eps
    else Mc_ftsa.schedule ~seed inst ~eps
  in
  let horizon = Schedule.latency_upper_bound s in
  let rng = Ftsched_util.Rng.create ~seed:(seed + 77) in
  let timed = Scenario.random_timed rng ~m ~count ~horizon:(horizon *. 1.2) in
  (s, timed, float_of_int delta_scale *. horizon /. 10.)

(* Property (issue): with recovery enabled and at least one surviving
   processor, no task is ever wholly lost — for FTSA and MC-FTSA plans,
   arbitrary timed scenarios and detection latencies. *)
let prop_recovery_never_loses_with_survivor =
  QCheck.Test.make ~name:"recovery completes whenever a processor survives"
    ~count:60 timed_case (fun case ->
      let s, timed, delta = timed_inputs case in
      let o = Recovery.run_timed ~delta s timed in
      o.Recovery.degraded.Metrics.complete
      && o.Recovery.result.Event_sim.latency <> None)

(* The flat recovery controller against the frozen list-based one
   ([Recovery_ref] under test/oracle): the whole outcome, every replica's
   times, the engine's counts, kills and injections, on the inputs of
   the never-lost property above. *)
let prop_recovery_equals_reference =
  QCheck.Test.make ~name:"reference race: never-lost inputs" ~count:60
    timed_case (fun case ->
      let s, timed, delta = timed_inputs case in
      Recovery.run_timed ~delta s timed = Recovery_ref.run_timed ~delta s timed)

(* The same race over the rest of the controller's inputs, one variant
   per seed: lossy links, an outage window, residual occupancy
   ([release]), a small re-mapping budget, one-port and duplex
   networks, and lossy links under one-port. *)
let prop_recovery_equals_reference_variants =
  QCheck.Test.make ~name:"reference race: variant inputs"
    ~count:120
    QCheck.(triple (int_range 0 10000) (int_range 1 5) (int_range 0 2))
    (fun (seed, count, delta_scale) ->
      let m = 6 in
      let inst = random_instance ~seed ~n_tasks:24 ~m () in
      let eps = 1 + (seed mod 2) in
      let s =
        if seed mod 3 = 0 then Ftsa.schedule ~seed inst ~eps
        else Mc_ftsa.schedule ~seed inst ~eps
      in
      let horizon = Schedule.latency_upper_bound s in
      let rng = Ftsched_util.Rng.create ~seed:(seed + 79) in
      let timed = Scenario.random_timed rng ~m ~count ~horizon in
      let delta = float_of_int delta_scale *. horizon /. 10. in
      let race ?network ?faults ?release ?rounds () =
        Recovery.run_timed ?network ?faults ?release ?rounds ~delta s timed
        = Recovery_ref.run_timed ?network ?faults ?release ?rounds ~delta s
            timed
      in
      match (seed / 7) mod 7 with
      | 0 -> race ~faults:(Scenario.lossy ~loss:0.2 ~retries:2 ~seed ()) ()
      | 1 ->
          let outage =
            Scenario.outage ~src:0 ~dst:1 ~from_t:(0.1 *. horizon)
              ~until_t:(0.6 *. horizon)
          in
          race ~faults:(Scenario.lossy ~outages:[ outage ] ~seed ()) ()
      | 2 ->
          let release =
            Array.init m (fun _ ->
                Ftsched_util.Rng.float_in rng 0. (horizon /. 4.))
          in
          race ~release ()
      | 3 -> race ~rounds:(seed mod 3) ()
      | 4 -> race ~network:(Event_sim.Sender_ports 1) ()
      | 5 -> race ~network:(Event_sim.Duplex_ports 1) ()
      | _ ->
          race ~network:(Event_sim.Sender_ports 1)
            ~faults:(Scenario.lossy ~loss:0.2 ~retries:2 ~seed ())
            ())

(* The engine's message-free path (reliable, contention-free) against
   its per-message path on the same physics — zero loss plus an outage
   window that never opens — under the whole recovery loop: every
   sweep, kill and injection must see the same engine state, so the
   outcomes agree bit for bit. *)
let prop_recovery_message_free_equals_per_message =
  let per_message =
    Scenario.lossy
      ~outages:[ Scenario.outage ~src:0 ~dst:1 ~from_t:0. ~until_t:0. ] ()
  in
  QCheck.Test.make ~name:"recovery: message-free engine = per-message engine"
    ~count:60
    QCheck.(triple (int_range 0 10000) (int_range 1 4) (int_range 0 2))
    (fun (seed, count, delta_scale) ->
      let m = 5 in
      let inst = random_instance ~seed ~n_tasks:20 ~m () in
      let eps = 1 + (seed mod 2) in
      let s =
        if seed mod 3 = 0 then Ftsa.schedule ~seed inst ~eps
        else Mc_ftsa.schedule ~seed inst ~eps
      in
      let horizon = Schedule.latency_upper_bound s in
      let rng = Ftsched_util.Rng.create ~seed:(seed + 78) in
      let timed = Scenario.random_timed rng ~m ~count ~horizon in
      let delta = float_of_int delta_scale *. horizon /. 10. in
      Recovery.run_timed ~delta s timed
      = Recovery.run_timed ~faults:per_message ~delta s timed)

(* Regression (issue 6, satellite): a detection latency exceeding every
   replica's slack — here 10x the whole static horizon, so every sweep
   fires long after the plan has run dry — must still terminate in a
   typed outcome on reliable AND lossy links: complete when a processor
   survives, a degraded report when none does, never a hang or an
   uncaught defeat. *)
let test_huge_delta_degrades_typed () =
  let m = 4 in
  let inst = random_instance ~seed:91 ~n_tasks:20 ~m () in
  let s = Ftsa.schedule ~seed:91 inst ~eps:1 in
  let horizon = Schedule.latency_upper_bound s in
  let delta = 10. *. horizon in
  let faults_of = function
    | `Reliable -> Scenario.reliable
    | `Lossy -> Scenario.lossy ~loss:0.3 ~retries:2 ~seed:5 ()
  in
  List.iter
    (fun link ->
      let faults = faults_of link in
      (* beyond eps, one survivor: late sweeps must still finish the job *)
      let fail_times =
        [| horizon /. 5.; horizon /. 4.; horizon /. 3.; infinity |]
      in
      let o = Recovery.run ~faults ~delta s ~fail_times in
      check_bool "typed completion with a survivor" true
        o.Recovery.degraded.Metrics.complete;
      (* no survivor: typed degradation, not an exception *)
      let all_dead = Array.make m (horizon /. 5.) in
      let o' = Recovery.run ~faults ~delta s ~fail_times:all_dead in
      check_bool "defeat reported as degraded outcome" false
        o'.Recovery.degraded.Metrics.complete;
      check_bool "no latency claimed" true
        (o'.Recovery.result.Event_sim.latency = None);
      check_bool "progress accounting stays sane" true
        (let d = o'.Recovery.degraded in
         d.Metrics.completed_tasks >= 0
         && d.Metrics.completed_tasks < d.Metrics.total_tasks))
    [ `Reliable; `Lossy ]

(* Recovery replays deterministically: same inputs, same outcome. *)
let test_recovery_deterministic () =
  let inst = random_instance ~seed:36 ~n_tasks:25 ~m:5 () in
  let s = Mc_ftsa.schedule ~seed:36 inst ~eps:2 in
  let horizon = Schedule.latency_upper_bound s in
  let fail_times = [| horizon /. 4.; infinity; horizon /. 3.; infinity; horizon /. 2. |] in
  let o1 = Recovery.run ~delta:(horizon /. 20.) s ~fail_times in
  let o2 = Recovery.run ~delta:(horizon /. 20.) s ~fail_times in
  check_bool "same latency" true
    (o1.Recovery.result.Event_sim.latency = o2.Recovery.result.Event_sim.latency);
  check_int "same injections" o1.Recovery.injections o2.Recovery.injections;
  check_int "same kills" o1.Recovery.kills o2.Recovery.kills

(* Scenario.exponential: deterministic, respects zero rates, feeds the
   simulator directly. *)
let test_exponential_scenario () =
  let rng = Ftsched_util.Rng.create ~seed:7 in
  let rates = [| 0.5; 0.; 2.; 0.1 |] in
  let ft = Scenario.exponential rng ~rates in
  check_bool "reliable proc never fails" true (ft.(1) = infinity);
  Array.iteri
    (fun p f -> if rates.(p) > 0. then check_bool "positive finite" true (f > 0. && f < infinity))
    ft;
  (* same seed, same draws *)
  let rng' = Ftsched_util.Rng.create ~seed:7 in
  let ft' = Scenario.exponential rng' ~rates in
  Alcotest.(check (array (float 1e-12))) "deterministic" ft ft';
  (* the timed view agrees with the raw fail times *)
  let rng'' = Ftsched_util.Rng.create ~seed:7 in
  let timed = Scenario.exponential_timed rng'' ~rates ~horizon:infinity in
  List.iter
    (fun { Scenario.proc; at } -> check_float "timed matches raw" ft.(proc) at)
    timed;
  check_int "one entry per failing proc" 3 (List.length timed)

let () =
  Alcotest.run "recovery"
    [
      ( "detector",
        [
          Alcotest.test_case "timeline" `Quick test_detector_timeline;
          Alcotest.test_case "negative delta" `Quick
            test_detector_rejects_negative_delta;
        ] );
      ( "event-sim-edges",
        [
          Alcotest.test_case "death exactly at finish" `Quick
            test_death_exactly_at_finish;
          Alcotest.test_case "duplex mid-execution failure" `Quick
            test_duplex_mid_execution_failure;
          Alcotest.test_case "NaN crash instant rejected" `Quick
            test_nan_fail_time_rejected;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "no failures = M*" `Quick
            test_recovery_no_failures_is_lower_bound;
          Alcotest.test_case "agrees with reroute within eps" `Quick
            test_recovery_agrees_with_reroute_within_eps;
          Alcotest.test_case "MC defeated, recovery completes (regression)"
            `Quick test_mc_defeated_but_recovery_completes;
          Alcotest.test_case "static lost, recovery completes under loss"
            `Quick test_static_lost_but_recovery_completes_under_loss;
          Alcotest.test_case "degrades gracefully beyond eps" `Quick
            test_degrades_beyond_eps_without_raising;
          Alcotest.test_case "degradation monotone in survivors" `Quick
            test_degradation_monotone_in_survivors;
          Alcotest.test_case "huge delta degrades typed (regression)" `Quick
            test_huge_delta_degrades_typed;
          Alcotest.test_case "deterministic replay" `Quick
            test_recovery_deterministic;
          quick prop_recovery_never_loses_with_survivor;
          quick prop_recovery_message_free_equals_per_message;
          quick prop_recovery_equals_reference;
          quick prop_recovery_equals_reference_variants;
        ] );
      ( "scenario-exponential",
        [ Alcotest.test_case "exponential generator" `Quick test_exponential_scenario ] );
    ]

(* Tests for Ftsched_sim: scenarios, the crash executor, the event-driven
   simulator — including the cross-validation of the two independent
   execution engines and the documented MC-FTSA end-to-end gap. *)

module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Event_sim = Ftsched_sim.Event_sim
module Worst_case = Ftsched_sim.Worst_case
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Ftbar = Ftsched_baseline.Ftbar
module Schedule = Ftsched_schedule.Schedule
module Validate = Ftsched_schedule.Validate
module Schedulers = Ftsched_core.Schedulers
module Fuzz = Ftsched_fuzz.Fuzz
module Rng = Ftsched_util.Rng
open Helpers

(* ------------------------------------------------------------------ *)
(* Scenario                                                            *)

let test_scenario_of_list () =
  let s = Scenario.of_list [ 3; 1 ] in
  Alcotest.(check (array int)) "kept" [| 3; 1 |] s.Scenario.failed;
  Alcotest.check_raises "duplicates"
    (Invalid_argument "Scenario.of_list: duplicate processor") (fun () ->
      ignore (Scenario.of_list [ 1; 1 ]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Scenario.of_list: negative processor") (fun () ->
      ignore (Scenario.of_list [ -1 ]))

let prop_scenario_random_distinct =
  QCheck.Test.make ~name:"random scenarios are distinct subsets" ~count:200
    QCheck.(pair (int_range 0 1000) (int_range 0 6))
    (fun (seed, count) ->
      let rng = Rng.create ~seed in
      let s = Scenario.random rng ~m:8 ~count in
      Array.length s.Scenario.failed = count
      && Array.for_all (fun p -> p >= 0 && p < 8) s.Scenario.failed
      && List.length (List.sort_uniq compare (Array.to_list s.Scenario.failed))
         = count)

let test_all_of_size_counts () =
  (* C(5,2) = 10 *)
  check_int "C(5,2)" 10 (List.length (Scenario.all_of_size ~m:5 ~count:2));
  check_int "C(4,0)" 1 (List.length (Scenario.all_of_size ~m:4 ~count:0));
  check_int "C(4,4)" 1 (List.length (Scenario.all_of_size ~m:4 ~count:4))

let test_random_timed () =
  let rng = Rng.create ~seed:3 in
  let timed = Scenario.random_timed rng ~m:6 ~count:3 ~horizon:10. in
  check_int "count" 3 (List.length timed);
  List.iter
    (fun { Scenario.proc; at } ->
      check_bool "proc range" true (proc >= 0 && proc < 6);
      check_bool "time range" true (at >= 0. && at < 10.))
    timed

(* ------------------------------------------------------------------ *)
(* Crash executor                                                      *)

let prop_no_failure_matches_lower_bound =
  QCheck.Test.make
    ~name:"crash(∅) achieves exactly M* for FTSA/MC/FTBAR" ~count:25
    QCheck.(pair (int_range 0 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      List.for_all
        (fun s ->
          let l = Crash_exec.latency_exn s Scenario.none in
          Float.abs (l -. Schedule.latency_lower_bound s) < 1e-6)
        [
          Ftsa.schedule ~seed inst ~eps;
          Mc_ftsa.schedule ~seed inst ~eps;
          Ftbar.schedule ~seed inst ~npf:eps;
        ])

let prop_crash_latency_within_bounds =
  QCheck.Test.make
    ~name:"FTSA crash latency within [M*, M] for every eps-subset" ~count:15
    QCheck.(pair (int_range 1 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      let s = Ftsa.schedule ~seed inst ~eps in
      let lb = Schedule.latency_lower_bound s in
      let ub = Schedule.latency_upper_bound s in
      List.for_all
        (fun sc ->
          let l = Crash_exec.latency_exn s sc in
          l >= lb -. 1e-6 && l <= ub +. 1e-6)
        (Scenario.all_of_size ~m:5 ~count:eps))

let prop_strict_equals_reroute_for_all_to_all =
  QCheck.Test.make
    ~name:"strict and reroute agree on all-to-all plans" ~count:15
    QCheck.(pair (int_range 1 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      let s = Ftsa.schedule ~seed inst ~eps in
      List.for_all
        (fun sc ->
          let a = Crash_exec.latency_exn ~policy:Crash_exec.Strict s sc in
          let b = Crash_exec.latency_exn ~policy:Crash_exec.Reroute s sc in
          Float.abs (a -. b) < 1e-9)
        (Scenario.all_of_size ~m:5 ~count:eps))

let prop_reroute_never_defeated =
  QCheck.Test.make
    ~name:"reroute policy always delivers MC-FTSA under <= eps failures"
    ~count:15
    QCheck.(pair (int_range 1 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      let s = Mc_ftsa.schedule ~seed inst ~eps in
      List.for_all
        (fun sc ->
          (Crash_exec.run ~policy:Crash_exec.Reroute s sc).Crash_exec.latency
          <> None)
        (Scenario.all_of_size ~m:5 ~count:eps))

let test_defeated_beyond_eps () =
  (* failing the processors of all replicas of some task defeats the
     schedule (that requires eps+1 > eps failures, as Theorem 4.1 says) *)
  let inst = random_instance ~seed:17 ~m:5 () in
  let s = Ftsa.schedule inst ~eps:1 in
  let victim = Scenario.of_list (Array.to_list (Schedule.assigned_procs s 0)) in
  let r = Crash_exec.run s victim in
  check_bool "defeated" true (r.Crash_exec.latency = None);
  check_bool "latency_exn raises typed defeat" true
    (try
       ignore (Crash_exec.latency_exn s victim);
       false
     with Crash_exec.Defeated { task; scenario } ->
       task = 0 && scenario == victim);
  (match Crash_exec.latency_result s victim with
  | Ok _ -> Alcotest.fail "latency_result must report the defeat"
  | Error { Crash_exec.task; _ } ->
      check_int "first wholly-lost task" 0 task)

let test_outcome_classification () =
  let inst = tiny_instance () in
  let s = Ftsa.schedule inst ~eps:1 in
  let r = Crash_exec.run s (Scenario.of_list [ 0 ]) in
  (* replicas on P0 are Dead, replicas on P1 Completed *)
  Array.iteri
    (fun task row ->
      Array.iteri
        (fun k outcome ->
          let rep = Schedule.replica s task k in
          match outcome with
          | Crash_exec.Dead -> check_int "dead on P0" 0 rep.Schedule.proc
          | Crash_exec.Completed _ -> check_int "alive on P1" 1 rep.Schedule.proc
          | Crash_exec.Starved -> Alcotest.fail "nothing starves here")
        row)
    r.Crash_exec.outcomes

let test_crash_serializes_on_survivor () =
  (* killing P0 in the tiny chain forces everything onto P1:
     t0 [0,4], t1 [4,7], t2 [7,8] -> latency 8 *)
  let inst = tiny_instance () in
  let s = Ftsa.schedule inst ~eps:1 in
  check_float "latency on P1" 8. (Crash_exec.latency_exn s (Scenario.of_list [ 0 ]))

let test_survives_hand () =
  let s = hand_schedule () in
  let survives failed = Crash_exec.survives s (Scenario.of_list failed) in
  check_bool "no failure" true (survives []);
  check_bool "P0 fails" true (survives [ 0 ]);
  check_bool "P1 fails" true (survives [ 1 ]);
  check_bool "both fail" false (survives [ 0; 1 ]);
  check_bool "exhaustive eps=1" true (survives_eps_subsets s)

(* The structural verdict is the timed replay's verdict, for every
   scheduler and both policies, on every subset of at most ε+1 dead
   processors; under rerouting it reduces to "every task keeps a replica
   on a live processor". *)
let prop_survives_is_replay_verdict =
  QCheck.Test.make ~name:"survives = replay delivers, both policies"
    ~count:60 (QCheck.int_range 0 100_000) (fun seed ->
      let case = Fuzz.gen_case ~seed in
      let inst = case.Fuzz.instance in
      List.for_all
        (fun (sched : Schedulers.t) ->
          let s =
            sched.run ~seed:case.Fuzz.sched_seed inst ~eps:case.Fuzz.eps
          in
          let keeps_live_replica dead task =
            Array.exists
              (fun (r : Schedule.replica) -> not (Array.mem r.proc dead))
              (Schedule.replicas s task)
          in
          List.for_all
            (fun dead ->
              let sc = { Scenario.failed = dead } in
              let live =
                List.for_all (keeps_live_replica dead)
                  (List.init (Instance.n_tasks inst) Fun.id)
              in
              List.for_all
                (fun policy ->
                  let verdict = Crash_exec.survives ~policy s sc in
                  verdict = ((Crash_exec.run ~policy s sc).latency <> None)
                  && (policy = Crash_exec.Strict || verdict = live))
                [ Crash_exec.Strict; Crash_exec.Reroute ])
            (subsets_up_to ~m:(Instance.n_procs inst) ~k:(Schedule.eps s + 1)))
        Schedulers.all)

(* The documented gap: the paper's MC-FTSA selection survives per edge
   (Prop. 4.3) yet fails end-to-end under the strict policy. *)
let test_mc_strict_gap_counterexample () =
  let inst = random_instance ~seed:42 ~n_tasks:60 ~m:8 () in
  let s = Mc_ftsa.schedule ~seed:42 inst ~eps:2 in
  (* the per-edge structure of Prop 4.3 holds … *)
  check_int "no structural errors" 0 (List.length (Validate.robust_selection s));
  (* … yet some 2-failure scenario starves a whole task, and the subset
     the sweep names defeats a timed strict replay *)
  match Worst_case.first_defeat ~policy:Crash_exec.Strict s ~count:2 with
  | None -> Alcotest.fail "end-to-end survival should fail"
  | Some sc ->
      check_int "two processors" 2 (Array.length sc.Scenario.failed);
      check_bool "strict execution defeated" true
        ((Crash_exec.run ~policy:Crash_exec.Strict s sc).Crash_exec.latency
        = None)

(* ------------------------------------------------------------------ *)
(* Event-driven simulator                                              *)

let prop_event_sim_agrees_with_crash_exec =
  QCheck.Test.make
    ~name:"event simulator replicates crash executor (strict)" ~count:15
    QCheck.(pair (int_range 1 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      List.for_all
        (fun s ->
          List.for_all
            (fun sc ->
              let a =
                (Crash_exec.run ~policy:Crash_exec.Strict s sc).Crash_exec.latency
              in
              let b = (Event_sim.run_crash s sc).Event_sim.latency in
              match (a, b) with
              | None, None -> true
              | Some x, Some y -> x = y
              | _ -> false)
            (Scenario.all_of_size ~m:5 ~count:eps))
        [ Ftsa.schedule ~seed inst ~eps; Mc_ftsa.schedule ~seed inst ~eps ])

let test_event_sim_no_failure () =
  let inst = random_instance ~seed:21 () in
  let s = Ftsa.schedule inst ~eps:2 in
  let r = Event_sim.run s ~fail_times:(Array.make 6 infinity) in
  (match r.Event_sim.latency with
  | Some l -> check_float "M*" (Schedule.latency_lower_bound s) l
  | None -> Alcotest.fail "no failures cannot defeat");
  check_bool "processed events" true (r.Event_sim.events_processed > 0)

let test_event_sim_late_failure_harmless () =
  let inst = random_instance ~seed:22 () in
  let s = Ftsa.schedule inst ~eps:1 in
  let horizon = Schedule.latency_upper_bound s +. 1. in
  let r = Event_sim.run_timed s [ { Scenario.proc = 0; at = horizon } ] in
  match r.Event_sim.latency with
  | Some l -> check_float "failure after completion" (Schedule.latency_lower_bound s) l
  | None -> Alcotest.fail "late failure cannot defeat"

let test_event_sim_mid_failure_bounded () =
  let inst = random_instance ~seed:23 ~m:5 () in
  let s = Ftsa.schedule inst ~eps:1 in
  let lb = Schedule.latency_lower_bound s in
  let ub = Schedule.latency_upper_bound s in
  (* fail one processor at various instants: result stays within bounds *)
  List.iter
    (fun frac ->
      let at = frac *. ub in
      let r = Event_sim.run_timed s [ { Scenario.proc = 1; at } ] in
      match r.Event_sim.latency with
      | Some l ->
          check_bool "within [M*, M]" true (l >= lb -. 1e-6 && l <= ub +. 1e-6)
      | None -> Alcotest.fail "single failure cannot defeat eps=1")
    [ 0.; 0.25; 0.5; 0.75 ]

let test_event_sim_timed_vs_crash_at_zero () =
  let inst = random_instance ~seed:24 ~m:5 () in
  let s = Ftsa.schedule inst ~eps:2 in
  let sc = Scenario.of_list [ 0; 3 ] in
  let a = (Event_sim.run_crash s sc).Event_sim.latency in
  let b = (Crash_exec.run s sc).Crash_exec.latency in
  match (a, b) with
  | Some x, Some y -> check_float "same" y x
  | _ -> Alcotest.fail "both should deliver"

(* ------------------------------------------------------------------ *)
(* Worst-case analysis                                                 *)

let stats_exn (r : Worst_case.report) =
  match r.Worst_case.stats with
  | Some st -> st
  | None -> Alcotest.fail "expected at least one delivered scenario"

let test_worst_case_report () =
  let inst = random_instance ~seed:40 ~n_tasks:25 ~m:5 () in
  let s = Ftsa.schedule inst ~eps:2 in
  let r = Worst_case.analyze s ~count:2 in
  check_int "C(5,2) scenarios" 10 r.Worst_case.scenarios;
  check_int "never defeated" 0 r.Worst_case.defeated;
  check_bool "exhaustive" false r.Worst_case.sampled;
  let st = stats_exn r in
  check_bool "best <= mean <= worst" true
    (st.Worst_case.best <= st.Worst_case.mean +. 1e-9
    && st.Worst_case.mean <= st.Worst_case.worst +. 1e-9);
  check_bool "worst within guarantee" true
    (st.Worst_case.worst <= Schedule.latency_upper_bound s +. 1e-6);
  check_bool "best at least M*" true
    (st.Worst_case.best >= Schedule.latency_lower_bound s -. 1e-6);
  (* the named worst scenario reproduces the worst latency *)
  check_bool "worst scenario consistent" true
    (Float.abs
       (Crash_exec.latency_exn s st.Worst_case.worst_scenario
       -. st.Worst_case.worst)
    < 1e-9)

let test_worst_case_counts_defeats () =
  let inst = random_instance ~seed:42 ~n_tasks:30 ~m:5 () in
  let s = Mc_ftsa.schedule ~seed:42 inst ~eps:2 in
  let r = Worst_case.analyze ~policy:Crash_exec.Strict s ~count:2 in
  check_bool "strict MC-FTSA loses scenarios" true (r.Worst_case.defeated > 0)

let test_worst_case_all_defeated_typed () =
  (* killing both processors of a 2-processor platform defeats the only
     scenario: defeat must surface as [stats = None], not NaN *)
  let s = Ftsa.schedule (tiny_instance ()) ~eps:1 in
  let r = Worst_case.analyze s ~count:2 in
  check_int "one scenario" 1 r.Worst_case.scenarios;
  check_int "defeated" 1 r.Worst_case.defeated;
  check_bool "typed defeat" true (r.Worst_case.stats = None)

let test_worst_case_sampling_fallback () =
  let inst = random_instance ~seed:44 ~n_tasks:25 ~m:6 () in
  let s = Ftsa.schedule inst ~eps:1 in
  (* C(6,2) = 15 > sample_limit: must sample instead of raising *)
  let r = Worst_case.analyze ~sample_limit:5 ~samples:40 ~seed:7 s ~count:2 in
  check_bool "sampled" true r.Worst_case.sampled;
  check_int "evaluates the requested samples" 40 r.Worst_case.scenarios;
  let st = stats_exn r in
  check_bool "worst within guarantee" true
    (st.Worst_case.worst <= Schedule.latency_upper_bound s +. 1e-6);
  check_bool "best at least M*" true
    (st.Worst_case.best >= Schedule.latency_lower_bound s -. 1e-6);
  (* seeded: the same call reproduces the same extremes *)
  let r2 = Worst_case.analyze ~sample_limit:5 ~samples:40 ~seed:7 s ~count:2 in
  check_float "deterministic" st.Worst_case.worst (stats_exn r2).Worst_case.worst

let test_worst_case_guard () =
  let inst = random_instance ~seed:43 ~m:6 () in
  let s = Ftsa.schedule inst ~eps:1 in
  Alcotest.check_raises "count range"
    (Invalid_argument "Worst_case.analyze: count") (fun () ->
      ignore (Worst_case.analyze s ~count:9))

(* ------------------------------------------------------------------ *)
(* Network contention models (the paper's §7 future work)              *)

let no_failures m = Array.make m infinity

let prop_one_port_never_faster =
  QCheck.Test.make ~name:"one-port latency >= contention-free latency"
    ~count:25
    QCheck.(pair (int_range 0 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      List.for_all
        (fun s ->
          let lat network =
            match (Event_sim.run ~network s ~fail_times:(no_failures 6)).Event_sim.latency with
            | Some l -> l
            | None -> infinity
          in
          lat (Event_sim.Sender_ports 1) >= lat Event_sim.Contention_free -. 1e-6)
        [ Ftsa.schedule ~seed inst ~eps; Mc_ftsa.schedule ~seed inst ~eps ])

let test_ports_must_be_positive () =
  let inst = random_instance ~seed:26 () in
  let s = Ftsa.schedule inst ~eps:1 in
  Alcotest.check_raises "zero ports"
    (Invalid_argument "Event_sim.run: ports must be positive") (fun () ->
      ignore
        (Event_sim.run ~network:(Event_sim.Sender_ports 0) s
           ~fail_times:(no_failures 6)))

let test_intra_messages_bypass_ports () =
  (* single processor: everything is local, ports are irrelevant *)
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:100.;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:1 ~unit_delay:1. in
  let inst = Instance.create ~dag ~platform ~exec:[| [| 2. |]; [| 3. |] |] in
  let s = Ftsa.schedule inst ~eps:0 in
  let lat network =
    match (Event_sim.run ~network s ~fail_times:[| infinity |]).Event_sim.latency with
    | Some l -> l
    | None -> nan
  in
  check_float "local chain unaffected" (lat Event_sim.Contention_free)
    (lat (Event_sim.Sender_ports 1));
  check_float "is 5" 5. (lat (Event_sim.Sender_ports 1))

let test_one_port_serializes_fanout () =
  (* one source feeding two distant sinks: under one-port the two
     messages serialize, under contention-free they overlap. *)
  let b = Dag.Builder.create () in
  let src = Dag.Builder.add_task b in
  let s1 = Dag.Builder.add_task b in
  let s2 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src ~dst:s1 ~volume:10.;
  Dag.Builder.add_edge b ~src ~dst:s2 ~volume:10.;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:3 ~unit_delay:1. in
  let exec = [| [| 1.; 50.; 50. |]; [| 50.; 1.; 50. |]; [| 50.; 50.; 1. |] |] in
  let inst = Instance.create ~dag ~platform ~exec in
  let s = Ftsa.schedule inst ~eps:0 in
  (* src on P0 [0,1]; sinks on P1/P2; messages take 10 *)
  let lat network =
    match (Event_sim.run ~network s ~fail_times:(no_failures 3)).Event_sim.latency with
    | Some l -> l
    | None -> nan
  in
  check_float "contention-free: 1+10+1" 12. (lat Event_sim.Contention_free);
  check_float "one-port: second message waits" 22.
    (lat (Event_sim.Sender_ports 1));
  check_float "two ports restore overlap" 12.
    (lat (Event_sim.Sender_ports 2))

let prop_duplex_dominates_sender_ports =
  QCheck.Test.make
    ~name:"duplex >= sender-only >= contention-free latency" ~count:20
    QCheck.(pair (int_range 0 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let s = Ftsa.schedule ~seed inst ~eps in
      let lat network =
        match (Event_sim.run ~network s ~fail_times:(no_failures 6)).Event_sim.latency with
        | Some l -> l
        | None -> infinity
      in
      let free = lat Event_sim.Contention_free in
      let send = lat (Event_sim.Sender_ports 2) in
      let duplex = lat (Event_sim.Duplex_ports 2) in
      duplex >= send -. 1e-6 && send >= free -. 1e-6)

let test_duplex_unlimited_equals_free () =
  let inst = random_instance ~seed:27 ~m:5 () in
  let s = Ftsa.schedule inst ~eps:1 in
  let lat network =
    match (Event_sim.run ~network s ~fail_times:(no_failures 5)).Event_sim.latency with
    | Some l -> l
    | None -> nan
  in
  check_float "unbounded duplex = contention-free"
    (lat Event_sim.Contention_free)
    (lat (Event_sim.Duplex_ports 100_000))

let test_mc_wins_under_one_port () =
  (* the paper's conjecture: with contention, MC-FTSA beats FTSA *)
  let total_ftsa = ref 0. and total_mc = ref 0. in
  for seed = 0 to 5 do
    let inst = random_instance ~seed ~n_tasks:60 ~m:10 () in
    let lat s =
      match
        (Event_sim.run ~network:(Event_sim.Sender_ports 1) s
           ~fail_times:(no_failures 10))
          .Event_sim.latency
      with
      | Some l -> l
      | None -> Alcotest.fail "no-failure run defeated"
    in
    total_ftsa := !total_ftsa +. lat (Ftsa.schedule ~seed inst ~eps:2);
    total_mc := !total_mc +. lat (Mc_ftsa.schedule ~seed inst ~eps:2)
  done;
  check_bool "MC-FTSA faster on average under one-port" true
    (!total_mc < !total_ftsa)

let test_ports_and_failures_combined () =
  (* contention + crashes together: the event simulator must still
     deliver all-to-all schedules under <= eps failures, at a latency at
     least the contention-free crash latency *)
  let inst = random_instance ~seed:28 ~n_tasks:30 ~m:6 () in
  let s = Ftsa.schedule ~seed:28 inst ~eps:2 in
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 5 do
    let sc = Scenario.random rng ~m:6 ~count:2 in
    let free = (Event_sim.run_crash s sc).Event_sim.latency in
    let ported =
      (Event_sim.run_crash ~network:(Event_sim.Sender_ports 1) s sc)
        .Event_sim.latency
    in
    match (free, ported) with
    | Some a, Some b -> check_bool "ports only slow things down" true (b >= a -. 1e-6)
    | None, _ -> Alcotest.fail "contention-free replay defeated"
    | Some _, None ->
        (* possible: a queued transfer can be cut off by a sender's death
           under the port model even though the instantaneous-send model
           delivered it — then another replica must carry the task, and
           with all senders contended the schedule may legitimately fail
           only if more than eps chains break, which a crash at t=0
           cannot cause for all-to-all plans *)
        Alcotest.fail "one-port replay defeated under <= eps crashes"
  done

let test_event_sim_bad_fail_times () =
  let inst = random_instance ~seed:25 () in
  let s = Ftsa.schedule inst ~eps:1 in
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Event_sim.run: fail_times") (fun () ->
      ignore (Event_sim.run s ~fail_times:[| 0. |]))

(* A scenario naming a processor the platform lacks is outside input (a
   CLI flag, a daemon request): both crash executors must reject it with
   a typed error naming the processor, not an index exception. *)
let test_scenario_unknown_processor () =
  let inst = random_instance ~m:4 ~seed:25 () in
  let s = Ftsa.schedule inst ~eps:1 in
  Alcotest.check_raises "Crash_exec.run"
    (Invalid_argument "Crash_exec.run: processor 9 not in [0, 4)") (fun () ->
      ignore (Crash_exec.run s (Scenario.of_list [ 1; 9 ])));
  Alcotest.check_raises "Event_sim.run_crash"
    (Invalid_argument "Event_sim.run_crash: processor 9 not in [0, 4)")
    (fun () -> ignore (Event_sim.run_crash s (Scenario.of_list [ 9 ])))

(* ------------------------------------------------------------------ *)
(* Communication faults and retransmission                             *)

let test_comm_faults_validation () =
  Alcotest.check_raises "loss out of range"
    (Invalid_argument "Scenario.lossy: loss probability outside [0, 1]")
    (fun () -> ignore (Scenario.lossy ~loss:1.5 ()));
  Alcotest.check_raises "negative retries"
    (Invalid_argument "Scenario.lossy: negative retries") (fun () ->
      ignore (Scenario.lossy ~retries:(-1) ()));
  Alcotest.check_raises "rtt below 1"
    (Invalid_argument "Scenario.lossy: rtt_factor < 1") (fun () ->
      ignore (Scenario.lossy ~rtt_factor:0.5 ()));
  Alcotest.check_raises "self link"
    (Invalid_argument "Scenario.outage: intra-processor link") (fun () ->
      ignore (Scenario.outage ~src:1 ~dst:1 ~from_t:0. ~until_t:1.));
  Alcotest.check_raises "inverted window"
    (Invalid_argument "Scenario.outage: window") (fun () ->
      ignore (Scenario.outage ~src:0 ~dst:1 ~from_t:5. ~until_t:1.));
  check_bool "reliable is reliable" true (Scenario.is_reliable Scenario.reliable);
  check_bool "lossy is not" false
    (Scenario.is_reliable (Scenario.lossy ~loss:0.1 ()));
  let f = Scenario.lossy ~outages:[ Scenario.blackout ~src:0 ~dst:1 ] () in
  check_bool "blackout is permanent" true
    (Scenario.in_outage f ~src:0 ~dst:1 ~at:1e12);
  check_bool "blackout is directed" false
    (Scenario.in_outage f ~src:1 ~dst:0 ~at:0.)

(* Fixture: a 2-task chain forced across the machine — t0 on P0 at [0,1],
   t1 on P1; volume 10 at unit delay, so the single message departs at 1
   and arrives at 11, for a fault-free latency of 12. *)
let cross_chain () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:10.;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:2 ~unit_delay:1. in
  let inst = Instance.create ~dag ~platform ~exec:[| [| 1.; 50. |]; [| 50.; 1. |] |] in
  Ftsa.schedule inst ~eps:0

let run_chain s ~faults = Event_sim.run ~faults s ~fail_times:(no_failures 2)

let test_loss_exactly_at_arrival_instant () =
  let s = cross_chain () in
  (* outage windows are left-closed: an arrival exactly at from_t dies *)
  let lost =
    Scenario.lossy ~retries:0
      ~outages:[ Scenario.outage ~src:0 ~dst:1 ~from_t:11. ~until_t:12. ]
      ()
  in
  let r = run_chain s ~faults:lost in
  check_bool "defeated" true (r.Event_sim.latency = None);
  check_int "one permanent loss" 1 r.Event_sim.lost_messages;
  check_int "no retry budget" 0 r.Event_sim.retransmissions;
  (* ... and right-open: an arrival exactly at until_t survives *)
  let grazed =
    Scenario.lossy ~retries:0
      ~outages:[ Scenario.outage ~src:0 ~dst:1 ~from_t:10. ~until_t:11. ]
      ()
  in
  let r = run_chain s ~faults:grazed in
  (match r.Event_sim.latency with
  | Some l -> check_float "unharmed" 12. l
  | None -> Alcotest.fail "arrival at until_t must be delivered");
  check_int "nothing lost" 0 r.Event_sim.lost_messages

let test_retransmission_backoff_timing () =
  let s = cross_chain () in
  (* attempt 0 departs at 1, arrives at 11, inside the outage; the ack
     timeout is rtt_factor * w = 2 * 10, so attempt 1 departs at 21 and
     arrives at 31, outside: latency 31 + 1 *)
  let one_retry =
    Scenario.lossy ~retries:2 ~rtt_factor:2.
      ~outages:[ Scenario.outage ~src:0 ~dst:1 ~from_t:0. ~until_t:12. ]
      ()
  in
  let r = run_chain s ~faults:one_retry in
  (match r.Event_sim.latency with
  | Some l -> check_float "one backoff step" 32. l
  | None -> Alcotest.fail "retry must save the message");
  check_int "one retransmission" 1 r.Event_sim.retransmissions;
  check_int "no permanent loss" 0 r.Event_sim.lost_messages;
  (* longer outage: attempt 1 (arrival 31) dies too; the timeout doubles
     to 40, so attempt 2 departs at 61 and arrives at 71 *)
  let two_retries =
    Scenario.lossy ~retries:2 ~rtt_factor:2.
      ~outages:[ Scenario.outage ~src:0 ~dst:1 ~from_t:0. ~until_t:32. ]
      ()
  in
  let r = run_chain s ~faults:two_retries in
  (match r.Event_sim.latency with
  | Some l -> check_float "exponential backoff" 72. l
  | None -> Alcotest.fail "second retry must save the message");
  check_int "two retransmissions" 2 r.Event_sim.retransmissions

let test_backoff_capped_at_retry_bound () =
  let s = cross_chain () in
  (* same outage, but only one retry allowed: attempts at 11 and 31 both
     die and the message is permanently lost — the receiver starves *)
  let capped =
    Scenario.lossy ~retries:1 ~rtt_factor:2.
      ~outages:[ Scenario.outage ~src:0 ~dst:1 ~from_t:0. ~until_t:32. ]
      ()
  in
  let r = run_chain s ~faults:capped in
  check_bool "defeated" true (r.Event_sim.latency = None);
  check_int "exactly the retry budget" 1 r.Event_sim.retransmissions;
  check_int "then permanently lost" 1 r.Event_sim.lost_messages

let test_all_senders_exhausted () =
  (* eps = 1 with replicas forced onto disjoint processor pairs: all four
     cross messages of the all-to-all plan are lost (loss = 1), so both
     replicas of the successor starve and the schedule is defeated *)
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:10.;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:4 ~unit_delay:1. in
  let exec = [| [| 1.; 1.; 50.; 50. |]; [| 50.; 50.; 1.; 1. |] |] in
  let inst = Instance.create ~dag ~platform ~exec in
  let s = Ftsa.schedule inst ~eps:1 in
  let faults = Scenario.lossy ~loss:1. ~retries:1 ~seed:5 () in
  let r = Event_sim.run ~faults s ~fail_times:(no_failures 4) in
  check_bool "defeated" true (r.Event_sim.latency = None);
  check_int "all four messages exhausted" 4 r.Event_sim.lost_messages;
  check_int "each retried once" 4 r.Event_sim.retransmissions;
  (* the sources still completed: degradation, not a hang *)
  check_bool "sources done" true
    (Array.for_all
       (function Event_sim.Completed _ -> true | Event_sim.Lost -> false)
       r.Event_sim.outcomes.(t0))

let prop_zero_loss_bit_identical =
  QCheck.Test.make
    ~name:"loss 0 + no outages takes the exact unfaulted path" ~count:25
    QCheck.(pair (int_range 0 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      let faults = Scenario.lossy () in
      List.for_all
        (fun s ->
          List.for_all
            (fun network ->
              let plain = Event_sim.run ~network s ~fail_times:(no_failures 5) in
              let faulted =
                Event_sim.run ~network ~faults s ~fail_times:(no_failures 5)
              in
              plain.Event_sim.latency = faulted.Event_sim.latency
              && faulted.Event_sim.retransmissions = 0
              && faulted.Event_sim.lost_messages = 0)
            [ Event_sim.Contention_free; Event_sim.Sender_ports 1 ])
        [ Ftsa.schedule ~seed inst ~eps; Mc_ftsa.schedule ~seed inst ~eps ])

let prop_redundant_messaging_survives_loss_better =
  QCheck.Test.make
    ~name:"FTSA defeat rate <= MC-FTSA defeat rate under message loss"
    ~count:10
    QCheck.(int_range 0 5000)
    (fun seed ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      let s_ftsa = Ftsa.schedule ~seed inst ~eps:1 in
      let s_mc = Mc_ftsa.schedule ~seed inst ~eps:1 in
      let defeats s =
        let n = ref 0 in
        for k = 1 to 8 do
          let faults = Scenario.lossy ~loss:0.15 ~retries:0 ~seed:(seed + k) () in
          if
            (Event_sim.run ~faults s ~fail_times:(no_failures 5))
              .Event_sim.latency = None
          then incr n
        done;
        !n
      in
      defeats s_ftsa <= defeats s_mc)

(* ------------------------------------------------------------------ *)
(* Flat-array engine vs the frozen pairing-heap reference              *)

module Event_sim_ref = Ftsched_oracle.Event_sim_ref

(* One instance per DAG family: the five fuzz families, small enough to
   run hundreds of differential cases. *)
let family_instance ~family ~seed ~m =
  let rng = Rng.create ~seed in
  let dag =
    match family with
    | 0 -> Generators.layered rng ~n_tasks:24 ()
    | 1 -> Generators.erdos_renyi rng ~n_tasks:20 ~edge_prob:0.2 ()
    | 2 -> Generators.fork_join rng ~stages:3 ~width:4 ()
    | 3 -> Generators.random_out_tree rng ~n_tasks:22 ~max_children:3 ()
    | _ -> Generators.chain rng ~n_tasks:12 ()
  in
  let platform = Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 () in
  Instance.random_exec rng ~dag ~platform ()

(* One engine run, drained, with the heap-pop invariant checked: the
   queue never pops more events than the run processes (message-free
   replay pops far fewer). *)
let flat ?network ?faults ?release s ~fail_times =
  let eng = Event_sim.Engine.create ?network ?faults ?release s ~fail_times in
  Event_sim.Engine.drain eng;
  let r = Event_sim.Engine.result eng in
  if Event_sim.Engine.heap_pops eng > r.Event_sim.events_processed then
    Alcotest.failf "%d heap pops for %d processed events"
      (Event_sim.Engine.heap_pops eng) r.Event_sim.events_processed;
  r

let plan name ~seed inst ~eps =
  match Schedulers.find name with
  | Some sched -> sched.Schedulers.run ~seed inst ~eps
  | None -> Alcotest.failf "no scheduler %s" name

(* The flat-array engine must agree with the frozen reference engine
   bit for bit — identical latency, per-replica outcomes, event count
   and message accounting — across timed crashes, message loss, outages,
   port models and residual release timelines, on all-to-all (FTSA) and
   selected (MC-FTSA greedy and redundant) plans.  The reliable
   contention-free runs, with and without release times, take the
   message-free path. *)
let prop_flat_engine_equals_reference =
  QCheck.Test.make ~name:"flat engine = pairing-heap reference, bit for bit"
    ~count:100
    QCheck.(pair (int_range 0 4) (int_range 0 10_000))
    (fun (family, seed) ->
      let m = 5 in
      let inst = family_instance ~family ~seed ~m in
      let eps = seed mod 3 in
      let rng = Rng.create ~seed:(seed + 17) in
      let fail_times =
        Array.init m (fun _ ->
            if Rng.float_in rng 0. 1. < 0.4 then Rng.float_in rng 0. 20.
            else infinity)
      in
      let release = Array.init m (fun _ -> Rng.float_in rng 0. 3.) in
      let outages =
        [ Scenario.outage ~src:0 ~dst:(m - 1) ~from_t:1. ~until_t:4. ]
      in
      let faults =
        Scenario.lossy ~loss:0.15 ~outages ~retries:2 ~seed:(seed + 3) ()
      in
      let timed = Scenario.random_timed rng ~m ~count:2 ~horizon:15. in
      let crash = Scenario.of_list [ seed mod m ] in
      List.for_all
        (fun name ->
          let s = plan name ~seed inst ~eps in
          flat s ~fail_times = Event_sim_ref.run s ~fail_times
          && flat ~release s ~fail_times
             = Event_sim_ref.run ~release s ~fail_times
          && flat ~faults ~release s ~fail_times
             = Event_sim_ref.run ~faults ~release s ~fail_times
          && flat ~network:(Event_sim.Sender_ports 1) s ~fail_times
             = Event_sim_ref.run ~network:(Event_sim.Sender_ports 1) s
                 ~fail_times
          && flat ~network:(Event_sim.Duplex_ports 2) ~faults s ~fail_times
             = Event_sim_ref.run ~network:(Event_sim.Duplex_ports 2) ~faults s
                 ~fail_times
          && Event_sim.run_timed ~faults s timed
             = Event_sim_ref.run_timed ~faults s timed
          && Event_sim.run_timed ~faults:Scenario.reliable s timed
             = Event_sim_ref.run_timed ~faults:Scenario.reliable s timed
          && Event_sim.run_crash s crash = Event_sim_ref.run_crash s crash)
        [ "ftsa"; "mc-ftsa"; "mc-redundant" ])

(* Loss cascades nest the engine's receiver walks: a lost replica walks
   its plan receivers, a receiver it starves is lost inside that walk
   and walks its own, and under one port a completion's walk drops the
   transfers its processor's crash cuts off.  Redundant-2 plans (one
   source feeding two destinations), one port, the busiest processor
   crashing at a tenth of M*, with and without lossy links: these runs
   nest walks at least three deep (an engine whose third nested walk
   overwrites the outer walks' receivers fails this race).  The flat
   engine must agree with the reference bit for bit, and the cascades
   must starve replicas on processors that never fail. *)
let test_nested_walks_equal_reference () =
  let starved = ref 0 in
  for seed = 0 to 29 do
    let m = 6 in
    let inst = random_instance ~seed ~n_tasks:60 ~m () in
    let s = plan "mc-redundant" ~seed inst ~eps:2 in
    let busiest = ref 0 in
    for p = 1 to m - 1 do
      if Schedule.busy_time s p > Schedule.busy_time s !busiest then busiest := p
    done;
    let fail_times = Array.make m infinity in
    fail_times.(!busiest) <- 0.1 *. Schedule.latency_lower_bound s;
    let network = Event_sim.Sender_ports 1 in
    let faults = Scenario.lossy ~loss:0.3 ~retries:1 ~seed () in
    List.iter
      (fun (what, faults) ->
        let r = flat ~network ?faults s ~fail_times in
        if r <> Event_sim_ref.run ~network ?faults s ~fail_times then
          Alcotest.failf "seed %d %s: flat and reference engines disagree" seed
            what;
        Array.iteri
          (fun t reps ->
            Array.iteri
              (fun k o ->
                if o = Event_sim.Lost && Schedule.proc_of s t k <> !busiest then
                  incr starved)
              reps)
          r.Event_sim.outcomes)
      [ ("reliable", None); ("lossy", Some faults) ]
  done;
  check_bool "cascades starve replicas on live processors" true (!starved > 0)

(* Words allocated per processed event by whole replays of the kernel
   allocation guard's 1,000-task layered graph (m = 20, eps = 2; FTSA
   and MC-FTSA at seed 1): fault-free and with the busiest processor
   crashing at a quarter of M*, through [Event_sim.run], that crash
   through [Recovery.run_timed] with delta = 0.02 M*, and fault-free
   under the one-port network ([Sender_ports 1]), the per-message path.
   A count is minor words plus words allocated directly in the major
   heap (the engine's large arrays), after a minor collection so that
   every promoted word was allocated inside the window.  It is
   deterministic: equal over three runs in one domain and in each of two
   worker domains.

   Pinned counts (words per run / events, parent → now):
   - FTSA fault-free 314,992 → 285,987 / 183,810;
   - FTSA one crash 312,568 → 284,048 / 172,029;
   - FTSA recovery 313,954 → 285,527 / 172,029;
   - FTSA one-port 1,858,169 → 1,467,549 / 183,810;
   - MC-FTSA fault-free 305,906 → 276,907 / 63,270;
   - MC-FTSA one crash 263,632 → 245,465 / 17,554;
   - MC-FTSA recovery 1,244,905 → 776,806 / 34,181;
   - MC-FTSA one-port 766,856 → 617,322 / 63,270.
   Each bound is the count plus 1,000 words per run, per event: under
   one two-word block per completed replica (3,000 static replicas), so
   an allocation per completion fails the guard.

   Recovery's own words per injection — its run's words less those of
   the [Event_sim] run with the same crash, over its injections — are
   pinned beside them: MC-FTSA 981,239 → 531,341 words over 696
   injections (1,409.8 → 763.4 per injection); FTSA
   injects nothing there.  The bound is the count plus 1,000 words per
   run, per injection.  A budget change goes through CHANGES.md with its
   reason. *)
let test_replay_allocation_guard () =
  let module Recovery = Ftsched_recovery.Recovery in
  let rng = Rng.create ~seed:2008 in
  let dag = Generators.layered rng ~n_tasks:1000 () in
  let platform = Platform.random rng ~m:20 ~delay_lo:0.5 ~delay_hi:1.0 () in
  let inst = Instance.random_exec rng ~dag ~platform () in
  let m = 20 in
  (* words allocated by [run], and the count it returns *)
  let words run () =
    Gc.minor ();
    let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
    let n = run () in
    let _, promoted1, major1 = Gc.counters () and minor1 = Gc.minor_words () in
    (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0), n)
  in
  let per_event run () =
    let w, events = words run () in
    w /. float_of_int events
  in
  let deterministic name measure =
    let x = measure () in
    let again = List.init 2 (fun _ -> measure ()) in
    let parallel =
      Ftsched_par.Par.parallel_map ~jobs:2 (fun () -> measure ()) [ (); () ]
    in
    List.iter
      (fun y -> Alcotest.(check (float 0.)) (name ^ " repeat") x y)
      (again @ parallel);
    x
  in
  let bounded name what x bound =
    Printf.printf "%s: %.4f words per %s, budget %.3f\n" name x what bound;
    if x > bound then
      Alcotest.failf "%s: %.4f words per %s, budget %.3f" name x what bound
  in
  let runs name s ~per_event:bounds ~per_injection =
    let busiest = ref 0 in
    for p = 1 to m - 1 do
      if Schedule.busy_time s p > Schedule.busy_time s !busiest then busiest := p
    done;
    let mstar = Schedule.latency_lower_bound s in
    let crash = { Scenario.proc = !busiest; at = 0.25 *. mstar } in
    let events (r : Event_sim.result) = r.Event_sim.events_processed in
    let one_crash () = events (Event_sim.run_timed s [ crash ]) in
    let recovery () =
      (Recovery.run_timed ~delta:(0.02 *. mstar) s [ crash ]).Recovery.injections
    in
    List.iter2
      (fun (what, run) bound ->
        let name = name ^ " " ^ what in
        bounded name "event"
          (deterministic (name ^ " words per event") (per_event run))
          bound)
      [
        ("fault-free", fun () -> events (Event_sim.run s ~fail_times:(Array.make m infinity)));
        ("one crash", one_crash);
        ( "recovery",
          fun () ->
            events
              (Recovery.run_timed ~delta:(0.02 *. mstar) s [ crash ]).Recovery.result
        );
        ( "one-port",
          fun () ->
            events
              (Event_sim.run ~network:(Event_sim.Sender_ports 1) s
                 ~fail_times:(Array.make m infinity)) );
      ]
      bounds;
    let own () =
      let w, injections = words recovery () and w0, _ = words one_crash () in
      (w -. w0, injections)
    in
    let w, injections = own () in
    let per = if injections = 0 then 0. else w /. float_of_int injections in
    ignore (deterministic (name ^ " recovery words") (fun () -> fst (own ())));
    bounded (name ^ " recovery") "injection" per per_injection
  in
  runs "ftsa" (Ftsa.schedule ~seed:1 inst ~eps:2)
    ~per_event:[ 1.562; 1.657; 1.666; 7.990 ] ~per_injection:0.;
  runs "mc-ftsa" (Mc_ftsa.schedule ~seed:1 inst ~eps:2)
    ~per_event:[ 4.393; 14.041; 22.756; 9.773 ] ~per_injection:764.858

(* The same differential at benchmark size: the v=800, m=50, eps=2
   layered FTSA and MC-FTSA schedules under the scenarios a streaming
   replay hits hardest — fault-free, one timed crash, loss plus an
   outage on top of it, one-port contention — and through [run_timed].
   The fault-free FTSA replay pops at most a tenth of the events it
   processes. *)
let test_flat_engine_equals_reference_v800 () =
  let inst = layered_v800 () in
  let m = Instance.n_procs inst in
  let no_fail = Array.make m infinity in
  let same name flat reference =
    check_bool (name ^ ": flat = reference") true (flat = reference)
  in
  List.iter
    (fun (algo, s) ->
      let horizon =
        match (flat s ~fail_times:no_fail).Event_sim.latency with
        | Some l -> l
        | None -> Alcotest.fail "fault-free run defeated"
      in
      let crash = Array.copy no_fail in
      crash.(7) <- 0.25 *. horizon;
      let faults =
        Scenario.lossy ~loss:0.05
          ~outages:
            [
              Scenario.outage ~src:0 ~dst:1 ~from_t:(0.1 *. horizon)
                ~until_t:(0.4 *. horizon);
            ]
          ~retries:3 ~seed:42 ()
      in
      let name what = algo ^ " " ^ what in
      same (name "fault-free")
        (flat s ~fail_times:no_fail)
        (Event_sim_ref.run s ~fail_times:no_fail);
      same (name "single crash")
        (flat s ~fail_times:crash)
        (Event_sim_ref.run s ~fail_times:crash);
      same (name "loss+outage")
        (flat ~faults s ~fail_times:crash)
        (Event_sim_ref.run ~faults s ~fail_times:crash);
      same (name "one-port")
        (flat ~network:(Event_sim.Sender_ports 1) s ~fail_times:no_fail)
        (Event_sim_ref.run ~network:(Event_sim.Sender_ports 1) s
           ~fail_times:no_fail);
      let timed = [ { Scenario.proc = 7; at = 0.25 *. horizon } ] in
      same (name "run_timed") (Event_sim.run_timed s timed)
        (Event_sim_ref.run_timed s timed))
    [
      ("ftsa", Ftsa.schedule ~seed:2008 inst ~eps:2);
      ("mc-ftsa", Mc_ftsa.schedule ~seed:2008 inst ~eps:2);
    ];
  let eng =
    Event_sim.Engine.create (Ftsa.schedule ~seed:2008 inst ~eps:2)
      ~fail_times:no_fail
  in
  Event_sim.Engine.drain eng;
  let events = Event_sim.Engine.events_processed eng in
  let pops = Event_sim.Engine.heap_pops eng in
  check_bool
    (Printf.sprintf "fault-free FTSA: %d heap pops <= %d events / 10" pops
       events)
    true
    (10 * pops <= events)

(* A zero-loss fault model with an outage window that never opens:
   identical physics, but not [Scenario.reliable], so the engine keeps
   one event per message.  It is the engine's own per-message path, and
   the oracle for what the message-free path reports mid-run. *)
let per_message =
  Scenario.lossy
    ~outages:[ Scenario.outage ~src:0 ~dst:1 ~from_t:0. ~until_t:0. ] ()

(* Everything the engine reports at its current instant. *)
let engine_view eng inst =
  let module E = Event_sim.Engine in
  let g = Instance.dag inst in
  ( E.now eng,
    Array.init (Instance.n_procs inst) (E.free_at eng),
    Array.init (Instance.n_tasks inst) (fun task ->
        Array.init (E.n_replicas eng task) (fun rep ->
            ( E.replica_state eng ~task ~rep,
              List.init (Dag.in_degree g task) (fun pos ->
                  E.input_satisfied eng ~task ~rep ~pos) ))) )

(* The message-free path reports exactly the per-message engine's state
   at every horizon: replica states and times, which inputs have
   arrived, processor availability, [now] — through timed crashes,
   release times, a kill mid-run and a full drain, where [now] is the
   last delivery. *)
let prop_message_free_equals_per_message =
  QCheck.Test.make ~name:"message-free engine state = per-message, any now"
    ~count:60
    QCheck.(pair (int_range 0 4) (int_range 0 10_000))
    (fun (family, seed) ->
      let m = 5 in
      let inst = family_instance ~family ~seed ~m in
      let rng = Rng.create ~seed:(seed + 5) in
      let fail_times =
        Array.init m (fun _ ->
            if Rng.float_in rng 0. 1. < 0.4 then Rng.float_in rng 0. 20.
            else infinity)
      in
      let release =
        if seed mod 2 = 0 then None
        else Some (Array.init m (fun _ -> Rng.float_in rng 0. 3.))
      in
      List.for_all
        (fun name ->
          let s = plan name ~seed inst ~eps:(seed mod 3) in
          let module E = Event_sim.Engine in
          let fast = E.create ?release s ~fail_times in
          let slow = E.create ~faults:per_message ?release s ~fail_times in
          let same () = engine_view fast inst = engine_view slow inst in
          let mstar = Schedule.latency_lower_bound s in
          let kill_first_waiting () =
            let found = ref false in
            for task = Instance.n_tasks inst - 1 downto 0 do
              if not !found then
                for rep = 0 to E.n_replicas fast task - 1 do
                  if
                    (not !found)
                    && E.replica_state fast ~task ~rep = Event_sim.Waiting
                  then begin
                    found := true;
                    E.kill_replica fast ~task ~rep;
                    E.kill_replica slow ~task ~rep
                  end
                done
            done
          in
          List.for_all
            (fun f ->
              E.advance_until fast (f *. mstar);
              E.advance_until slow (f *. mstar);
              if f = 0.5 then kill_first_waiting ();
              same ())
            [ 0.1; 0.25; 0.5; 0.75; 1. ]
          && begin
               E.drain fast;
               E.drain slow;
               same () && E.result fast = E.result slow
             end)
        [ "ftsa"; "mc-ftsa"; "mc-redundant" ])

(* Pinned differential for completions popped below the high-water mark:
   a replica a loss unblocks starts in the past, and its messages may
   undercut arrivals the per-message engine has already delivered.
   Folding them like any other completion's diverges from the reference
   on these seeds (12 of 90,000 runs of this sweep, all of them below);
   sending them as events agrees. *)
let test_retroactive_completions () =
  List.iter
    (fun (seed, name) ->
      let m = 3 + (seed mod 4) in
      let inst = family_instance ~family:(seed mod 5) ~seed ~m in
      let s = plan name ~seed inst ~eps:(seed mod min 3 m) in
      let rng = Rng.create ~seed:(seed + 17) in
      Array.iteri
        (fun trial p_fail ->
          let fail_times =
            Array.init m (fun _ ->
                if Rng.float_in rng 0. 1. < p_fail then Rng.float_in rng 0. 25.
                else infinity)
          in
          let release =
            if trial mod 2 = 0 then None
            else Some (Array.init m (fun _ -> Rng.float_in rng 0. 4.))
          in
          check_bool
            (Printf.sprintf "seed %d %s trial %d" seed name trial)
            true
            (flat ?release s ~fail_times
            = Event_sim_ref.run ?release s ~fail_times))
        [| 0.2; 0.4; 0.6; 0.8; 0.3; 0.5 |])
    [
      (863, "mc-ftsa");
      (1223, "mc-ftsa");
      (1243, "ftbar");
      (1331, "mc-redundant");
      (1538, "mc-ftsa");
      (1993, "ftsa");
      (1993, "mc-redundant");
    ]

(* The heap payload packs (task, replica, position) at 21 bits a field.
   Every event kind round-trips at the field maxima — a task of 2^21 - 1
   makes the word negative — and the task-count and replica-index guards
   reject 2^21.  A ready event is packed as the arrival of its
   replica's last input. *)
let test_payload_packing () =
  let module P = Event_sim.Private in
  let top = (1 lsl P.payload_bits) - 1 in
  check_int "21-bit fields" 21 P.payload_bits;
  let round_trip what ~task ~rep ~pos =
    let word = P.encode ~task ~rep ~pos in
    check_bool (what ^ " round-trips") true (P.decode word = (task, rep, pos));
    word
  in
  List.iter
    (fun (kind, pos) ->
      ignore (round_trip (kind ^ ", zero fields") ~task:0 ~rep:0 ~pos);
      ignore (round_trip (kind ^ ", replica max") ~task:0 ~rep:top ~pos);
      let word = round_trip (kind ^ ", all maxima") ~task:top ~rep:top ~pos in
      check_bool (kind ^ ": top task packs negative") true (word < 0);
      ignore (round_trip (kind ^ ", task max") ~task:top ~rep:0 ~pos))
    [ ("completion", -1); ("arrival", top - 1); ("ready", top - 1); ("ready", 0) ];
  let raises what f =
    check_bool what true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  P.check_tasks top;
  P.check_replica top;
  raises "2^21 tasks rejected" (fun () -> P.check_tasks (top + 1));
  raises "replica index 2^21 rejected" (fun () -> P.check_replica (top + 1))

(* ------------------------------------------------------------------ *)
(* Flat-array crash replay vs the frozen list-based reference          *)

module Crash_exec_ref = Ftsched_oracle.Crash_exec_ref
module Workload = Ftsched_exp.Workload

(* Whole-result equality: every replica's outcome and times, and the
   latency compared on its bits. *)
let same_replay (a : Crash_exec.t) (b : Crash_exec.t) =
  a = b
  && Option.map Int64.bits_of_float a.latency
     = Option.map Int64.bits_of_float b.latency

(* The flat pass and the reference agree — [run] and [survives] — under
   both policies on every given scenario. *)
let replay_agrees s scenarios =
  List.for_all
    (fun sc ->
      List.for_all
        (fun policy ->
          same_replay (Crash_exec.run ~policy s sc)
            (Crash_exec_ref.run ~policy s sc)
          && Crash_exec.survives ~policy s sc
             = Crash_exec_ref.survives ~policy s sc)
        [ Crash_exec.Strict; Crash_exec.Reroute ])
    scenarios

(* The plans the differential replays: all-to-all (FTSA, FTBAR),
   selected with one and with two senders per input (MC-FTSA greedy and
   redundant), and the insertion-based HEFT, whose processor chains are
   not in commit order. *)
let replay_plans ~seed inst ~eps =
  List.map
    (fun name -> plan name ~seed inst ~eps)
    [ "ftsa"; "mc-ftsa"; "mc-redundant"; "ftbar"; "heft" ]

(* Every subset of exactly ε and of ε + 1 processors, and no crash. *)
let prop_crash_exec_equals_reference =
  QCheck.Test.make
    ~name:"flat crash replay = list reference, bit for bit" ~count:60
    QCheck.(pair (int_range 0 4) (int_range 0 10_000))
    (fun (family, seed) ->
      let m = 5 in
      let inst = family_instance ~family ~seed ~m in
      List.for_all
        (fun s ->
          let eps = Schedule.eps s in
          replay_agrees s
            ((Scenario.none :: Scenario.all_of_size ~m ~count:eps)
            @ Scenario.all_of_size ~m ~count:(eps + 1)))
        (replay_plans ~seed inst ~eps:(seed mod 3)))

(* The same at §6 size: v in [100, 150], m = 20, ε = 1 / 2 / 5, the
   fault-free scenario and sampled exactly-ε and ε + 1 subsets. *)
let test_crash_exec_equals_reference_sec6 () =
  List.iteri
    (fun index eps ->
      let granularity = 0.2 *. float_of_int (1 + (3 * index)) in
      let inst =
        Workload.instance Workload.paper ~master_seed:2008 ~granularity ~index
      in
      let m = Instance.n_procs inst in
      let rng = Rng.create ~seed:(2008 + index) in
      let scenarios =
        Scenario.none
        :: List.init 6 (fun i ->
               Scenario.random rng ~m ~count:(eps + (i mod 2)))
      in
      List.iter
        (fun s ->
          check_bool
            (Printf.sprintf "graph %d, eps %d" index eps)
            true (replay_agrees s scenarios))
        (replay_plans ~seed:index inst ~eps))
    [ 1; 2; 5; 2 ]

(* A NaN re-send compares false against [now] and against [infinity]:
   it would count as a sender and never be queued, and its replica
   would wait on it until lost.  [inject] rejects it before publishing
   the row. *)
let test_inject_rejects_nan_arrival () =
  let inst = tiny_instance () in
  let s = Ftsa.schedule ~seed:0 inst ~eps:0 in
  let eng = Event_sim.Engine.create s ~fail_times:[| infinity; infinity |] in
  Event_sim.Engine.drain eng;
  let src = Event_sim.Engine.rid eng ~task:0 ~rep:0 in
  Alcotest.check_raises "NaN arrival"
    (Invalid_argument "Event_sim.Engine.inject: NaN arrival") (fun () ->
      ignore
        (Event_sim.Engine.inject eng ~task:1 ~proc:1 ~src_lo:[| 0; 1 |]
           ~src_row:[| src |] ~src_at:[| Float.nan |]));
  check_int "no row published" 1 (Event_sim.Engine.n_replicas eng 1);
  let rep =
    Event_sim.Engine.inject eng ~task:1 ~proc:1 ~src_lo:[| 0; 1 |]
      ~src_row:[| src |] ~src_at:[| Event_sim.Engine.now eng |]
  in
  Event_sim.Engine.drain eng;
  check_bool "a priced re-send delivers" true
    (match Event_sim.Engine.replica_state eng ~task:1 ~rep with
    | Event_sim.Done _ -> true
    | _ -> false)

(* −0.0 volumes and delays and a −0.0 release are legal input.  The
   replay's plain comparisons ([Crash_exec]'s arrival loop, [Recovery]'s
   pricing) stand in for [Float.min]/[Float.max], which order −0.0
   below +0.0; on such instances each engine must still equal its
   reference, bit for bit. *)
let test_signed_zeros_equal_references () =
  let module Recovery = Ftsched_recovery.Recovery in
  let module Recovery_ref = Ftsched_oracle.Recovery_ref in
  let module Crash_exec_ref = Ftsched_oracle.Crash_exec_ref in
  let m = 5 in
  for seed = 0 to 7 do
    let rng = Rng.create ~seed in
    let g = Generators.layered rng ~n_tasks:30 () in
    let b = Dag.Builder.create () in
    for _ = 1 to Dag.n_tasks g do
      ignore (Dag.Builder.add_task b)
    done;
    Dag.iter_edges g (fun e ~src ~dst ~volume ->
        Dag.Builder.add_edge b ~src ~dst
          ~volume:(if e mod 2 = 0 then -0. else volume));
    let dag = Dag.Builder.build b in
    let delay =
      Array.init m (fun k ->
          Array.init m (fun h ->
              if k = h then 0.
              else if (k + h + seed) mod 3 = 0 then -0.
              else Rng.float_in rng 0.5 1.))
    in
    let platform = Platform.create ~delay in
    let inst = Instance.random_exec rng ~dag ~platform () in
    let release = Array.init m (fun p -> if p mod 2 = 0 then -0. else 0.5) in
    let fail_times = Array.make m infinity in
    fail_times.(seed mod m) <- Rng.float_in rng 0. 10.;
    List.iter
      (fun name ->
        let s = plan name ~seed inst ~eps:(1 + (seed mod 2)) in
        let what = Printf.sprintf "%s seed %d" name seed in
        check_bool (what ^ ": Event_sim") true
          (Event_sim.run ~release s ~fail_times
          = Event_sim_ref.run ~release s ~fail_times
          && Event_sim.run s ~fail_times = Event_sim_ref.run s ~fail_times);
        let crash = Scenario.of_list [ seed mod m ] in
        List.iter
          (fun policy ->
            check_bool (what ^ ": Crash_exec") true
              (Crash_exec.run ~policy s crash
              = Crash_exec_ref.run ~policy s crash))
          [ Crash_exec.Strict; Crash_exec.Reroute ];
        check_bool (what ^ ": Recovery") true
          (Recovery.run ~release ~delta:0.5 s ~fail_times
          = Recovery_ref.run ~release ~delta:0.5 s ~fail_times))
      [ "ftsa"; "mc-ftsa"; "mc-redundant" ]
  done

(* Pinned regression for the queue-cursor rewrite: replicas injected on
   one processor execute in injection (FIFO) order, back to back — the
   list engine appended with [@ [x]], the flat engine moves a tail
   cursor, and the order must not change. *)
let test_injection_fifo_order () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  let t2 = Dag.Builder.add_task b in
  ignore t0;
  ignore t1;
  ignore t2;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:2 ~unit_delay:0.5 in
  let exec = [| [| 1.; 1. |]; [| 1.; 1. |]; [| 1.; 1. |] |] in
  let inst = Instance.create ~dag ~platform ~exec in
  let s = Ftsa.schedule ~seed:0 inst ~eps:0 in
  let eng = Event_sim.Engine.create s ~fail_times:[| infinity; infinity |] in
  Event_sim.Engine.drain eng;
  let t_end = Event_sim.Engine.now eng in
  let reps =
    List.map
      (fun task ->
        (task, Event_sim.Engine.inject eng ~task ~proc:1 ~src_lo:[| 0 |]
            ~src_row:[||] ~src_at:[||] ))
      [ 0; 1; 2 ]
  in
  Event_sim.Engine.drain eng;
  let starts =
    List.map
      (fun (task, rep) ->
        match Event_sim.Engine.replica_state eng ~task ~rep with
        | Event_sim.Done { start; finish } ->
            check_float "unit exec" 1. (finish -. start);
            start
        | _ -> Alcotest.fail "injected replica did not complete")
      reps
  in
  match starts with
  | [ s0; s1; s2 ] ->
      check_bool "first injection starts at the decision instant" true
        (s0 >= t_end -. 1e-9);
      check_float "second runs right after the first" (s0 +. 1.) s1;
      check_float "third runs right after the second" (s1 +. 1.) s2
  | _ -> assert false

let () =
  Alcotest.run "sim"
    [
      ( "engine-differential",
        [
          quick prop_flat_engine_equals_reference;
          Alcotest.test_case "nested walks = reference" `Quick
            test_nested_walks_equal_reference;
          Alcotest.test_case "replay allocation guard" `Quick
            test_replay_allocation_guard;
          Alcotest.test_case "v=800 layered = reference" `Quick
            test_flat_engine_equals_reference_v800;
          Alcotest.test_case "retroactive completions = reference" `Quick
            test_retroactive_completions;
          quick prop_message_free_equals_per_message;
          Alcotest.test_case "payload packing bound" `Quick
            test_payload_packing;
          Alcotest.test_case "injection FIFO order" `Quick
            test_injection_fifo_order;
          Alcotest.test_case "inject rejects a NaN arrival" `Quick
            test_inject_rejects_nan_arrival;
          Alcotest.test_case "signed zeros = references" `Quick
            test_signed_zeros_equal_references;
          quick prop_crash_exec_equals_reference;
          Alcotest.test_case "crash replay = reference at §6 size" `Quick
            test_crash_exec_equals_reference_sec6;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "of_list" `Quick test_scenario_of_list;
          Alcotest.test_case "all_of_size" `Quick test_all_of_size_counts;
          Alcotest.test_case "random timed" `Quick test_random_timed;
          quick prop_scenario_random_distinct;
        ] );
      ( "crash-exec",
        [
          quick prop_no_failure_matches_lower_bound;
          quick prop_crash_latency_within_bounds;
          quick prop_strict_equals_reroute_for_all_to_all;
          quick prop_reroute_never_defeated;
          Alcotest.test_case "defeated beyond eps" `Quick test_defeated_beyond_eps;
          Alcotest.test_case "outcomes" `Quick test_outcome_classification;
          Alcotest.test_case "serializes on survivor" `Quick
            test_crash_serializes_on_survivor;
          Alcotest.test_case "survives hand" `Quick test_survives_hand;
          quick prop_survives_is_replay_verdict;
          Alcotest.test_case "MC strict gap (paper finding)" `Quick
            test_mc_strict_gap_counterexample;
        ] );
      ( "event-sim",
        [
          quick prop_event_sim_agrees_with_crash_exec;
          Alcotest.test_case "no failure = M*" `Quick test_event_sim_no_failure;
          Alcotest.test_case "late failure harmless" `Quick
            test_event_sim_late_failure_harmless;
          Alcotest.test_case "mid failure bounded" `Quick
            test_event_sim_mid_failure_bounded;
          Alcotest.test_case "timed vs crash-at-zero" `Quick
            test_event_sim_timed_vs_crash_at_zero;
          Alcotest.test_case "bad fail_times" `Quick test_event_sim_bad_fail_times;
          Alcotest.test_case "unknown scenario processor" `Quick
            test_scenario_unknown_processor;
        ] );
      ( "worst-case",
        [
          Alcotest.test_case "report" `Quick test_worst_case_report;
          Alcotest.test_case "counts defeats" `Quick test_worst_case_counts_defeats;
          Alcotest.test_case "all defeated typed" `Quick
            test_worst_case_all_defeated_typed;
          Alcotest.test_case "sampling fallback" `Quick
            test_worst_case_sampling_fallback;
          Alcotest.test_case "guard" `Quick test_worst_case_guard;
        ] );
      ( "comm-faults",
        [
          Alcotest.test_case "validation" `Quick test_comm_faults_validation;
          Alcotest.test_case "loss at arrival instant" `Quick
            test_loss_exactly_at_arrival_instant;
          Alcotest.test_case "backoff timing" `Quick
            test_retransmission_backoff_timing;
          Alcotest.test_case "backoff capped at retry bound" `Quick
            test_backoff_capped_at_retry_bound;
          Alcotest.test_case "all senders exhausted" `Quick
            test_all_senders_exhausted;
          quick prop_zero_loss_bit_identical;
          quick prop_redundant_messaging_survives_loss_better;
        ] );
      ( "network-models",
        [
          quick prop_one_port_never_faster;
          Alcotest.test_case "ports positive" `Quick test_ports_must_be_positive;
          Alcotest.test_case "intra bypasses ports" `Quick
            test_intra_messages_bypass_ports;
          Alcotest.test_case "one-port serializes fan-out" `Quick
            test_one_port_serializes_fanout;
          quick prop_duplex_dominates_sender_ports;
          Alcotest.test_case "unbounded duplex = free" `Quick
            test_duplex_unlimited_equals_free;
          Alcotest.test_case "ports + failures combined" `Quick
            test_ports_and_failures_combined;
          Alcotest.test_case "MC wins under one-port (conjecture)" `Slow
            test_mc_wins_under_one_port;
        ] );
    ]

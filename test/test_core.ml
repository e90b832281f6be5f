(* Tests for Ftsched_core: edge selection, FTSA, MC-FTSA, bicriteria and
   the scheduler catalogue. *)

module Edge_select = Ftsched_kernel.Edge_select
module Edge_select_ref = Ftsched_oracle.Edge_select_ref
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Bicriteria = Ftsched_core.Bicriteria
module Ftsa_policy = Ftsched_core.Ftsa_policy
module Schedulers = Ftsched_core.Schedulers
module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan
module Rng = Ftsched_util.Rng
open Helpers

(* ------------------------------------------------------------------ *)
(* Edge_select                                                         *)

let e l r w forced = { Edge_select_ref.left = l; right = r; weight = w; forced }

(* The flat selectors on a literal candidate list, added in list order;
   each returns the selection's pairs, in selection order. *)
let flat_set ~eps edges =
  let t = Edge_select.create () in
  Edge_select_ref.load t ~eps edges;
  t

let selecting select ~eps edges =
  let t = flat_set ~eps edges in
  select t;
  Edge_select_ref.selection t

let greedy = selecting Edge_select.greedy
let bottleneck = selecting Edge_select.bottleneck
let redundant ~senders = selecting (Edge_select.redundant ~senders)
let bottleneck_value ~eps edges = Edge_select.bottleneck_value (flat_set ~eps edges)

(* the largest weight of the greedy selection *)
let greedy_max ~eps edges =
  let t = flat_set ~eps edges in
  Edge_select.greedy t;
  Edge_select.max_weight t

let complete_edges ~eps weights =
  (* weights.(l).(r) *)
  let acc = ref [] in
  for l = 0 to eps do
    for r = 0 to eps do
      acc := e l r weights.(l).(r) false :: !acc
    done
  done;
  !acc

let test_greedy_simple () =
  (* greedy takes 0->1 (w=1) then must take 1->0 (w=5), even though
     1->1 (w=2) is cheaper, because right 1 is taken. *)
  let edges =
    [ e 0 0 10. false; e 0 1 1. false; e 1 0 5. false; e 1 1 2. false ]
  in
  let pairs = greedy ~eps:1 edges in
  Alcotest.(check (list (pair int int))) "greedy choice" [ (0, 1); (1, 0) ]
    (List.sort compare pairs)

let test_greedy_forced_first () =
  (* the forced edge 0->0 (huge weight) must win over the cheap 0->1 *)
  let edges = [ e 0 0 100. true; e 0 1 1. false; e 1 0 1. false; e 1 1 1. false ] in
  let pairs = greedy ~eps:1 edges in
  check_bool "forced retained" true (List.mem (0, 0) pairs);
  check_bool "bijection" true
    (Comm_plan.is_one_to_one
       (List.map (fun (l, r) -> { Comm_plan.src_replica = l; dst_replica = r }) pairs)
       ~eps:1)

let test_greedy_conflicting_forced () =
  let edges = [ e 0 0 1. true; e 1 0 1. true ] in
  check_bool "raises Infeasible" true
    (try
       ignore (greedy ~eps:1 edges);
       false
     with Edge_select.Infeasible _ -> true)

(* regression: [max_weight] on a pair with no backing edge used to
   escape as [Not_found] from the linear scan; it is now an indexed
   lookup raising a descriptive [Infeasible].  Arbitrary pairs are the
   list-based reference's business — the fuzzer prices a schedule's own
   pairs with it; the flat set prices only its own selection. *)
let test_max_weight_missing_pair () =
  let edges = [ e 0 0 3. false; e 1 1 4. false ] in
  check_float "known pairs" 4.
    (Edge_select_ref.max_weight edges [ (0, 0); (1, 1) ]);
  check_float "flat: the selection's largest weight" 4. (greedy_max ~eps:1 edges);
  check_bool "missing pair raises Infeasible" true
    (try
       ignore (Edge_select_ref.max_weight edges [ (0, 1) ]);
       false
     with Edge_select_ref.Infeasible _ -> true);
  (* duplicate (left, right) entries: first occurrence wins, as in the
     old first-match scan *)
  let dup = [ e 0 0 7. false; e 0 0 2. false ] in
  check_float "first duplicate wins" 7. (Edge_select_ref.max_weight dup [ (0, 0) ])

let test_bottleneck_optimal_simple () =
  (* bottleneck picks {0->1, 1->0} with max 5 over {0->0, 1->1} max 10 *)
  let edges =
    [ e 0 0 10. false; e 0 1 1. false; e 1 0 5. false; e 1 1 10. false ]
  in
  check_float "value" 5. (bottleneck_value ~eps:1 edges);
  let pairs = bottleneck ~eps:1 edges in
  Alcotest.(check (list (pair int int))) "selection" [ (0, 1); (1, 0) ]
    (List.sort compare pairs)

(* brute force over all permutations of rights *)
let brute_bottleneck ~eps edges =
  let k = eps + 1 in
  let weight l r =
    List.fold_left
      (fun acc ed ->
        if ed.Edge_select_ref.left = l && ed.Edge_select_ref.right = r then
          Float.min acc ed.Edge_select_ref.weight
        else acc)
      infinity edges
  in
  let best = ref infinity in
  let rec perms acc used =
    if List.length acc = k then begin
      let cost =
        List.fold_left
          (fun m (l, r) -> Float.max m (weight l r))
          neg_infinity
          (List.mapi (fun l r -> (l, r)) (List.rev acc))
      in
      if cost < !best then best := cost
    end
    else
      for r = 0 to k - 1 do
        if not (List.mem r used) then perms (r :: acc) (r :: used)
      done
  in
  perms [] [];
  !best

let prop_bottleneck_matches_brute_force =
  QCheck.Test.make ~name:"bottleneck equals brute force on complete graphs"
    ~count:200
    QCheck.(pair (int_range 0 2) (int_range 0 10_000))
    (fun (eps, seed) ->
      let rng = Rng.create ~seed in
      let k = eps + 1 in
      let weights =
        Array.init k (fun _ -> Array.init k (fun _ -> Rng.float_in rng 1. 100.))
      in
      let edges = complete_edges ~eps weights in
      let v = bottleneck_value ~eps edges in
      let b = brute_bottleneck ~eps edges in
      Float.abs (v -. b) < 1e-9)

let prop_greedy_bijective_and_bounded =
  QCheck.Test.make
    ~name:"greedy is one-to-one; bottleneck never worse" ~count:200
    QCheck.(pair (int_range 0 3) (int_range 0 10_000))
    (fun (eps, seed) ->
      let rng = Rng.create ~seed in
      let k = eps + 1 in
      let weights =
        Array.init k (fun _ -> Array.init k (fun _ -> Rng.float_in rng 1. 100.))
      in
      let edges = complete_edges ~eps weights in
      let g = greedy ~eps edges in
      let is_bij =
        Comm_plan.is_one_to_one
          (List.map (fun (l, r) -> { Comm_plan.src_replica = l; dst_replica = r }) g)
          ~eps
      in
      let greedy_max = greedy_max ~eps edges in
      let opt = bottleneck_value ~eps edges in
      is_bij && opt <= greedy_max +. 1e-9)

(* The flat selectors against the frozen list-based ones.  Random
   candidate sets over k <= 6 replicas per side, in random order: some
   left replicas get one forced candidate (sometimes onto a right
   another forced candidate already holds, so greedy can fail), a few
   none, the others a random subset of the rights holding their own
   index; weights come from {1, ..., 4}, so the (left, right) and
   insertion-order tie rules decide.  Each selector must give the same
   pairs in the same order or the same [Infeasible] message, and the
   same bottleneck value and greedy max weight. *)
let random_candidates rng =
  let k = 1 + Rng.int rng 6 in
  let weight () = float_of_int (1 + Rng.int rng 4) in
  let acc = ref [] in
  for l = 0 to k - 1 do
    let draw = Rng.int rng 12 in
    if draw < 4 then acc := e l (Rng.int rng k) (weight ()) true :: !acc
    else if draw > 4 then
      for r = 0 to k - 1 do
        if r = l || Rng.int rng 4 > 0 then acc := e l r (weight ()) false :: !acc
      done
  done;
  let cands = Array.of_list !acc in
  Rng.shuffle rng cands;
  (k - 1, Array.to_list cands)

let outcome f =
  match f () with
  | x -> Ok x
  | exception Edge_select.Infeasible msg -> Error msg
  | exception Edge_select_ref.Infeasible msg -> Error msg

let prop_flat_selectors_match_reference =
  QCheck.Test.make ~name:"flat selectors equal the list-based reference"
    ~count:2000 (QCheck.int_range 0 1_000_000) (fun seed ->
      let eps, cands = random_candidates (Rng.create ~seed) in
      let same what flat reference =
        outcome flat = outcome reference
        || QCheck.Test.fail_reportf "%s differs (eps %d, %d candidates)" what eps
             (List.length cands)
      in
      let senders = 1 + (seed mod (eps + 1)) in
      same "greedy"
        (fun () -> greedy ~eps cands)
        (fun () -> Edge_select_ref.greedy ~eps cands)
      && same "bottleneck"
           (fun () -> bottleneck ~eps cands)
           (fun () -> Edge_select_ref.bottleneck ~eps cands)
      && same "redundant"
           (fun () -> redundant ~eps ~senders cands)
           (fun () -> Edge_select_ref.redundant ~eps ~senders cands)
      && same "bottleneck value"
           (fun () -> bottleneck_value ~eps cands)
           (fun () -> Edge_select_ref.bottleneck_value ~eps cands)
      && same "greedy max weight"
           (fun () -> greedy_max ~eps cands)
           (fun () ->
             Edge_select_ref.max_weight cands
               (Edge_select_ref.greedy ~eps cands)))

(* ------------------------------------------------------------------ *)
(* FTSA                                                                *)

let test_ftsa_tiny_trace () =
  (* hand-traced execution on the tiny chain (see test_schedule.ml) *)
  let inst = tiny_instance () in
  let s = Ftsa.schedule inst ~eps:1 in
  check_float "M*" 8. (Schedule.latency_lower_bound s);
  check_float "M" 25. (Schedule.latency_upper_bound s);
  Alcotest.(check (array int)) "t0 procs" [| 0; 1 |] (Schedule.assigned_procs s 0);
  Alcotest.(check (array int)) "t2 procs" [| 1; 0 |] (Schedule.assigned_procs s 2)

let prop_ftsa_valid =
  QCheck.Test.make ~name:"FTSA schedules are always valid" ~count:60
    QCheck.(pair (int_range 0 3) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let s = Ftsa.schedule ~seed inst ~eps in
      Ftsched_schedule.Validate.check s = Ok ())

let prop_ftsa_survives_exhaustive =
  QCheck.Test.make ~name:"Theorem 4.1: FTSA survives every eps-subset"
    ~count:25
    QCheck.(pair (int_range 1 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      let s = Ftsa.schedule ~seed inst ~eps in
      survives_eps_subsets s)

let prop_ftsa_bounds_ordered =
  QCheck.Test.make ~name:"FTSA: M* <= M" ~count:50
    QCheck.(pair (int_range 0 4) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:8 () in
      let s = Ftsa.schedule ~seed inst ~eps in
      Schedule.latency_lower_bound s
      <= Schedule.latency_upper_bound s +. 1e-6)

let test_ftsa_eps0_no_replication () =
  let inst = random_instance ~seed:4 () in
  let s = Ftsa.fault_free inst in
  check_int "one replica" 1 (Schedule.n_replicas s);
  check_float "bounds coincide"
    (Schedule.latency_lower_bound s)
    (Schedule.latency_upper_bound s)

let test_ftsa_eps_equals_m_minus_1 () =
  let inst = random_instance ~seed:5 ~m:4 () in
  let s = Ftsa.schedule inst ~eps:3 in
  assert_valid "full replication" s;
  (* every task runs on all four processors *)
  for t = 0 to Instance.n_tasks inst - 1 do
    Alcotest.(check (list int)) "all procs" [ 0; 1; 2; 3 ]
      (List.sort compare (Array.to_list (Schedule.assigned_procs s t)))
  done

let test_ftsa_invalid_eps () =
  let inst = random_instance ~seed:6 ~m:4 () in
  Alcotest.check_raises "eps too large"
    (Invalid_argument "Ftsa_policy.run: need 0 <= eps < number of processors")
    (fun () -> ignore (Ftsa.schedule inst ~eps:4))

let test_ftsa_deterministic () =
  let inst = random_instance ~seed:7 () in
  let a = Ftsa.schedule ~seed:11 inst ~eps:2 in
  let b = Ftsa.schedule ~seed:11 inst ~eps:2 in
  check_float "same latency"
    (Schedule.latency_lower_bound a)
    (Schedule.latency_lower_bound b);
  for t = 0 to Instance.n_tasks inst - 1 do
    Alcotest.(check (array int)) "same mapping"
      (Schedule.assigned_procs a t)
      (Schedule.assigned_procs b t)
  done

let test_ftsa_single_task () =
  let b = Dag.Builder.create () in
  let _ = Dag.Builder.add_task b in
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:3 ~unit_delay:1. in
  let inst = Instance.create ~dag ~platform ~exec:[| [| 5.; 3.; 4. |] |] in
  let s = Ftsa.schedule inst ~eps:1 in
  (* the two fastest processors host the replicas *)
  Alcotest.(check (array int)) "fastest two" [| 1; 2 |]
    (Schedule.assigned_procs s 0);
  check_float "M* = 3" 3. (Schedule.latency_lower_bound s);
  check_float "M = 4" 4. (Schedule.latency_upper_bound s)

let test_ftsa_independent_tasks () =
  (* edgeless graph: every task replicated, no comm, load spread *)
  let b = Dag.Builder.create () in
  for _ = 1 to 6 do
    ignore (Dag.Builder.add_task b)
  done;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:3 ~unit_delay:1. in
  let exec = Array.make 6 [| 2.; 2.; 2. |] in
  let inst = Instance.create ~dag ~platform ~exec in
  let s = Ftsa.schedule inst ~eps:1 in
  assert_valid "independent" s;
  (* 12 replicas of 2 time units on 3 procs: makespan at least 8 *)
  check_bool "load lower bound" true (Schedule.latency_upper_bound s >= 8.)

let test_ftsa_message_quadratic () =
  let inst = random_instance ~seed:8 ~m:8 () in
  let g = Instance.dag inst in
  let eps = 2 in
  let s = Ftsa.schedule inst ~eps in
  check_bool "at most e(eps+1)^2 messages" true
    (Schedule.inter_processor_messages s
     <= Dag.n_edges g * (eps + 1) * (eps + 1))

(* ------------------------------------------------------------------ *)
(* MC-FTSA                                                             *)

let prop_mc_valid =
  QCheck.Test.make ~name:"MC-FTSA schedules are always valid (incl. Prop 4.3 structure)"
    ~count:60
    QCheck.(pair (int_range 0 3) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let s = Mc_ftsa.schedule ~seed inst ~eps in
      Ftsched_schedule.Validate.check s = Ok ())

let prop_mc_bottleneck_valid =
  QCheck.Test.make ~name:"MC-FTSA/bottleneck schedules are always valid"
    ~count:40
    QCheck.(pair (int_range 0 3) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let s = Mc_ftsa.schedule ~seed ~strategy:Mc_ftsa.Bottleneck inst ~eps in
      Ftsched_schedule.Validate.check s = Ok ())

let prop_mc_linear_messages =
  QCheck.Test.make ~name:"MC-FTSA sends at most e(eps+1) messages" ~count:50
    QCheck.(pair (int_range 0 3) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:8 () in
      let g = Instance.dag inst in
      let s = Mc_ftsa.schedule ~seed inst ~eps in
      Schedule.inter_processor_messages s <= Dag.n_edges g * (eps + 1))

let prop_mc_fewer_messages_than_ftsa =
  QCheck.Test.make ~name:"MC-FTSA never sends more messages than FTSA"
    ~count:40
    QCheck.(pair (int_range 1 3) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:8 () in
      let mc = Mc_ftsa.schedule ~seed inst ~eps in
      let ftsa = Ftsa.schedule ~seed inst ~eps in
      Schedule.inter_processor_messages mc
      <= Schedule.inter_processor_messages ftsa)

let test_mc_eps0_equals_ftsa () =
  (* without replication there is nothing to select: same schedule *)
  let inst = random_instance ~seed:9 () in
  let a = Ftsa.schedule ~seed:0 inst ~eps:0 in
  let b = Mc_ftsa.schedule ~seed:0 inst ~eps:0 in
  check_float "same latency"
    (Schedule.latency_lower_bound a)
    (Schedule.latency_lower_bound b)

let prop_mc_single_sender_per_input =
  QCheck.Test.make ~name:"MC-FTSA: every replica has exactly one sender per edge"
    ~count:30
    QCheck.(pair (int_range 1 3) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let s = Mc_ftsa.schedule ~seed inst ~eps in
      match Schedule.comm s with
      | Comm_plan.All_to_all -> false
      | Comm_plan.Selected sel ->
          Array.for_all
            (fun pairs -> Comm_plan.is_one_to_one pairs ~eps)
            sel)

(* The optimized engine versus the naive reference oracle: identical
   schedules, replica for replica. *)
let prop_ftsa_matches_reference_oracle =
  QCheck.Test.make ~name:"FTSA equals the naive reference implementation"
    ~count:40
    QCheck.(pair (int_range 0 3) (int_range 0 10_000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:30 ~m:6 () in
      let s = Ftsa.schedule ~seed inst ~eps in
      let r = Reference_ftsa.schedule ~seed inst ~eps in
      let ok = ref true in
      for task = 0 to Instance.n_tasks inst - 1 do
        let a = Schedule.replicas s task and b = r.Reference_ftsa.replicas.(task) in
        if Array.length a <> Array.length b then ok := false
        else
          Array.iteri
            (fun k (x : Schedule.replica) ->
              let y = b.(k) in
              if
                x.proc <> y.Reference_ftsa.proc
                || Float.abs (x.start -. y.Reference_ftsa.start) > 1e-9
                || Float.abs (x.finish -. y.Reference_ftsa.finish) > 1e-9
                || Float.abs (x.pess_finish -. y.Reference_ftsa.pess_finish) > 1e-9
              then ok := false)
            a
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Contention-aware FTSA extension                                     *)

module Ca_ftsa = Ftsched_core.Ca_ftsa
module Event_sim = Ftsched_sim.Event_sim

let prop_ca_valid =
  QCheck.Test.make ~name:"CA-FTSA schedules are always valid" ~count:30
    QCheck.(pair (int_range 0 3) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let s = Ca_ftsa.schedule ~seed inst ~eps in
      Ftsched_schedule.Validate.check s = Ok ())

let prop_ca_survives =
  QCheck.Test.make ~name:"CA-FTSA keeps Theorem 4.1" ~count:15
    QCheck.(pair (int_range 1 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      let s = Ca_ftsa.schedule ~seed inst ~eps in
      survives_eps_subsets s)

let test_ca_unlimited_ports_is_ftsa () =
  let inst = random_instance ~seed:30 ~m:6 () in
  let f = Ftsa.schedule ~seed:1 inst ~eps:2 in
  let c = Ca_ftsa.schedule ~seed:1 ~ports:1_000_000 inst ~eps:2 in
  check_float "identical M*"
    (Schedule.latency_lower_bound f)
    (Schedule.latency_lower_bound c);
  for t = 0 to Instance.n_tasks inst - 1 do
    Alcotest.(check (array int)) "identical mapping"
      (Schedule.assigned_procs f t)
      (Schedule.assigned_procs c t)
  done

let test_ca_beats_ftsa_under_one_port () =
  let total_f = ref 0. and total_c = ref 0. in
  for seed = 0 to 5 do
    let inst = random_instance ~seed ~n_tasks:50 ~m:8 ~granularity:0.4 () in
    let lat s =
      match
        (Event_sim.run ~network:(Event_sim.Sender_ports 1) s
           ~fail_times:(Array.make 8 infinity))
          .Event_sim.latency
      with
      | Some l -> l
      | None -> Alcotest.fail "no-failure run defeated"
    in
    total_f := !total_f +. lat (Ftsa.schedule ~seed inst ~eps:2);
    total_c := !total_c +. lat (Ca_ftsa.schedule ~seed ~ports:1 inst ~eps:2)
  done;
  check_bool "contention-aware mapping replays faster" true
    (!total_c < !total_f)

let test_ca_rejects_bad_ports () =
  let inst = random_instance ~seed:31 () in
  Alcotest.check_raises "zero ports"
    (Invalid_argument "Ca_ftsa.schedule: ports must be positive") (fun () ->
      ignore (Ca_ftsa.schedule ~ports:0 inst ~eps:1))

(* ------------------------------------------------------------------ *)
(* Domain-aware FTSA extension                                         *)

module Ftsa_domains = Ftsched_core.Ftsa_domains
module Crash_exec = Ftsched_sim.Crash_exec
module Scenario = Ftsched_sim.Scenario

(* three racks of two processors *)
let racks = [| 0; 0; 1; 1; 2; 2 |]

let prop_domains_valid_and_distinct =
  QCheck.Test.make
    ~name:"domain-aware FTSA: valid + replicas in distinct domains" ~count:30
    QCheck.(pair (int_range 0 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let s = Ftsa_domains.schedule ~seed ~domains:racks inst ~eps in
      Ftsched_schedule.Validate.check s = Ok ()
      && Ftsa_domains.distinct_replica_domains s ~domains:racks)

let prop_domains_survive_domain_failures =
  QCheck.Test.make
    ~name:"domain-aware FTSA survives any eps domain failures" ~count:15
    QCheck.(pair (int_range 1 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:6 () in
      let s = Ftsa_domains.schedule ~seed ~domains:racks inst ~eps in
      (* enumerate domain subsets of size eps; fail all their processors *)
      let subsets =
        match eps with
        | 1 -> [ [ 0 ]; [ 1 ]; [ 2 ] ]
        | _ -> [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ]
      in
      List.for_all
        (fun ds ->
          let failed =
            List.concat_map (fun d -> Ftsa_domains.procs_of_domain ~domains:racks d) ds
          in
          Crash_exec.survives s (Scenario.of_list failed))
        subsets)

let test_domains_identity_is_ftsa () =
  let inst = random_instance ~seed:60 ~m:6 () in
  let f = Ftsa.schedule ~seed:1 inst ~eps:2 in
  let d =
    Ftsa_domains.schedule ~seed:1 ~domains:[| 0; 1; 2; 3; 4; 5 |] inst ~eps:2
  in
  check_float "same M*"
    (Schedule.latency_lower_bound f)
    (Schedule.latency_lower_bound d)

let test_plain_ftsa_breaks_under_domain_failures () =
  (* domain-blind FTSA colocates replicas within a rack on some instance,
     so some single-rack failure defeats it — while the domain-aware
     variant never does (previous property).  Scan a few seeds; at least
     one must exhibit the weakness for the comparison to be meaningful. *)
  let broken = ref false in
  for seed = 0 to 9 do
    let inst = random_instance ~seed ~n_tasks:25 ~m:6 () in
    let s = Ftsa.schedule ~seed inst ~eps:1 in
    List.iter
      (fun d ->
        let failed = Ftsa_domains.procs_of_domain ~domains:racks d in
        if not (Crash_exec.survives s (Scenario.of_list failed)) then
          broken := true)
      [ 0; 1; 2 ]
  done;
  check_bool "plain FTSA is domain-fragile" true !broken

let test_domains_bad_inputs () =
  let inst = random_instance ~seed:61 ~m:6 () in
  Alcotest.check_raises "domains size"
    (Invalid_argument "Ftsa_domains.schedule: domains size") (fun () ->
      ignore (Ftsa_domains.schedule ~domains:[| 0 |] inst ~eps:1));
  Alcotest.check_raises "too few domains"
    (Invalid_argument
       "Ftsa_domains.schedule: need 0 <= eps < number of domains") (fun () ->
      ignore (Ftsa_domains.schedule ~domains:racks inst ~eps:3))

(* ------------------------------------------------------------------ *)
(* Reliability-aware R-FTSA extension                                  *)

module R_ftsa = Ftsched_core.R_ftsa
module Reliability = Ftsched_reliability.Reliability

let uniform_rates m r = Array.make m r

let prop_rftsa_valid =
  QCheck.Test.make ~name:"R-FTSA schedules are always valid" ~count:30
    QCheck.(pair (int_range 0 3) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let rng = Rng.create ~seed in
      let rates = Array.init 6 (fun _ -> Rng.float_in rng 0. 0.01) in
      let s = R_ftsa.schedule ~seed ~rates inst ~eps in
      Ftsched_schedule.Validate.check s = Ok ())

let prop_rftsa_survives =
  QCheck.Test.make ~name:"R-FTSA keeps Theorem 4.1" ~count:15
    QCheck.(pair (int_range 1 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      let s = R_ftsa.schedule ~seed ~rates:(uniform_rates 5 0.001) inst ~eps in
      survives_eps_subsets s)

let test_rftsa_alpha_zero_matches_ftsa_set () =
  let inst = random_instance ~seed:50 ~m:6 () in
  let f = Ftsa.schedule ~seed:2 inst ~eps:2 in
  let r =
    R_ftsa.schedule ~seed:2 ~alpha:0. ~rates:(uniform_rates 6 0.5) inst ~eps:2
  in
  (* same processor set per task (order may differ) and same M* *)
  check_float "same M*"
    (Schedule.latency_lower_bound f)
    (Schedule.latency_lower_bound r);
  for t = 0 to Instance.n_tasks inst - 1 do
    Alcotest.(check (list int)) "same proc set"
      (List.sort compare (Array.to_list (Schedule.assigned_procs f t)))
      (List.sort compare (Array.to_list (Schedule.assigned_procs r t)))
  done

let test_rftsa_latency_bounded_slack () =
  let inst = random_instance ~seed:51 ~m:8 () in
  let f = Ftsa.schedule ~seed:1 inst ~eps:2 in
  let r =
    R_ftsa.schedule ~seed:1 ~alpha:0.2 ~rates:(uniform_rates 8 0.01) inst ~eps:2
  in
  (* slack compounds along paths, but stays within a loose global factor *)
  check_bool "latency within 2x" true
    (Schedule.latency_lower_bound r
    <= 2. *. Schedule.latency_lower_bound f)

let test_rftsa_improves_mission_reliability () =
  let total_f = ref 0. and total_r = ref 0. in
  for seed = 0 to 4 do
    let inst = random_instance ~seed ~n_tasks:50 ~m:10 () in
    let f = Ftsa.schedule ~seed inst ~eps:2 in
    let horizon = Schedule.latency_upper_bound f in
    let base = 0.05 /. horizon in
    let rates =
      Array.init 10 (fun p -> if p mod 2 = 0 then 20. *. base else base)
    in
    let r = R_ftsa.schedule ~seed ~alpha:0.3 ~rates inst ~eps:2 in
    let mission s k =
      let rng = Rng.create ~seed:(seed + k) in
      (fst (Reliability.mission rng s ~rates ~rate:0. ~trials:800 ())).Reliability.mean
    in
    total_f := !total_f +. mission f 100;
    total_r := !total_r +. mission r 200
  done;
  check_bool "avoiding flaky processors pays" true (!total_r > !total_f)

let test_rftsa_rejects_bad_inputs () =
  let inst = random_instance ~seed:52 ~m:4 () in
  Alcotest.check_raises "rates size" (Invalid_argument "R_ftsa.schedule: rates")
    (fun () -> ignore (R_ftsa.schedule ~rates:[| 0.1 |] inst ~eps:1));
  Alcotest.check_raises "negative alpha"
    (Invalid_argument "R_ftsa.schedule: alpha must be >= 0") (fun () ->
      ignore
        (R_ftsa.schedule ~alpha:(-1.) ~rates:(uniform_rates 4 0.1) inst ~eps:1))

(* ------------------------------------------------------------------ *)
(* Redundant MC-FTSA extension                                         *)

let prop_redundant_valid =
  QCheck.Test.make ~name:"Redundant MC-FTSA schedules are valid" ~count:30
    QCheck.(triple (int_range 1 3) (int_range 1 4) (int_range 0 5000))
    (fun (eps, senders, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let s =
        Mc_ftsa.schedule ~seed ~strategy:(Mc_ftsa.Redundant senders) inst ~eps
      in
      Ftsched_schedule.Validate.check s = Ok ())

let prop_redundant_message_budget =
  QCheck.Test.make ~name:"Redundant k sends at most e(eps+1)k messages"
    ~count:30
    QCheck.(triple (int_range 1 3) (int_range 1 4) (int_range 0 5000))
    (fun (eps, senders, seed) ->
      let inst = random_instance ~seed ~m:8 () in
      let g = Instance.dag inst in
      let s =
        Mc_ftsa.schedule ~seed ~strategy:(Mc_ftsa.Redundant senders) inst ~eps
      in
      let k = min senders (eps + 1) in
      Schedule.inter_processor_messages s <= Dag.n_edges g * (eps + 1) * k)

let test_redundant_one_equals_greedy () =
  let inst = random_instance ~seed:20 ~m:6 () in
  let a = Mc_ftsa.schedule ~seed:1 inst ~eps:2 in
  let b = Mc_ftsa.schedule ~seed:1 ~strategy:(Mc_ftsa.Redundant 1) inst ~eps:2 in
  check_float "same M*"
    (Schedule.latency_lower_bound a)
    (Schedule.latency_lower_bound b);
  check_int "same messages"
    (Schedule.inter_processor_messages a)
    (Schedule.inter_processor_messages b)

let test_redundant_improves_robustness () =
  (* more senders per input => no more strict-policy defeats, measured
     exhaustively on a small platform *)
  let defeats senders =
    let count = ref 0 in
    for seed = 0 to 4 do
      let inst = random_instance ~seed ~n_tasks:30 ~m:5 () in
      let s =
        Mc_ftsa.schedule ~seed ~strategy:(Mc_ftsa.Redundant senders) inst ~eps:2
      in
      List.iter
        (fun sc ->
          if not (Crash_exec.survives ~policy:Crash_exec.Strict s sc) then
            incr count)
        (Scenario.all_of_size ~m:5 ~count:2)
    done;
    !count
  in
  let d1 = defeats 1 and d3 = defeats 3 in
  check_bool "paper MC-FTSA is defeated sometimes" true (d1 > 0);
  (* eps+1 senders per input restore FTSA's full fan-in: every live
     replica is productive, so no eps-subset can defeat the schedule *)
  check_int "full redundancy never defeated" 0 d3

let test_edge_select_redundant_counts () =
  let weights = [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |]; [| 7.; 8.; 9. |] |] in
  let edges = complete_edges ~eps:2 weights in
  let pairs = redundant ~eps:2 ~senders:2 edges in
  (* every destination must be fed by exactly 2 distinct sources *)
  List.iter
    (fun d ->
      let senders = List.filter (fun (_, r) -> r = d) pairs in
      check_int "two senders" 2 (List.length senders);
      let srcs = List.map fst senders in
      check_int "distinct" 2 (List.length (List.sort_uniq compare srcs)))
    [ 0; 1; 2 ];
  (* clamping: senders beyond eps+1 behave like eps+1 *)
  let all = redundant ~eps:2 ~senders:99 edges in
  check_int "full fan-in" 9 (List.length all)

(* ------------------------------------------------------------------ *)
(* Bicriteria                                                          *)

let test_bicriteria_huge_budget () =
  let inst = random_instance ~seed:10 ~m:5 () in
  match Bicriteria.max_supported_failures inst ~latency:1e12 with
  | Some (eps, _) -> check_int "all failures supported" 4 eps
  | None -> Alcotest.fail "should fit"

let test_bicriteria_tiny_budget () =
  let inst = random_instance ~seed:11 ~m:5 () in
  check_bool "impossible budget" true
    (Bicriteria.max_supported_failures inst ~latency:1e-3 = None)

let test_bicriteria_result_fits () =
  let inst = random_instance ~seed:12 ~m:6 () in
  let base = Ftsa.fault_free inst in
  let budget = 2.5 *. Schedule.latency_lower_bound base in
  match Bicriteria.max_supported_failures inst ~latency:budget with
  | Some (eps, s) ->
      check_bool "fits" true (Schedule.latency_upper_bound s <= budget);
      check_int "schedule matches eps" eps (Schedule.eps s)
  | None -> Alcotest.fail "budget generous enough for eps=0"

let test_bicriteria_lower_bound_mode () =
  let inst = random_instance ~seed:13 ~m:6 () in
  let base = Ftsa.fault_free inst in
  let budget = 1.4 *. Schedule.latency_lower_bound base in
  match
    ( Bicriteria.max_supported_failures ~bound:Bicriteria.Lower_bound inst
        ~latency:budget,
      Bicriteria.max_supported_failures ~bound:Bicriteria.Upper_bound inst
        ~latency:budget )
  with
  | Some (eps_lb, _), Some (eps_ub, _) ->
      check_bool "lower-bound mode is at least as permissive" true
        (eps_lb >= eps_ub)
  | Some _, None -> ()
  | None, _ -> Alcotest.fail "lower-bound mode should fit eps=0"

let test_deadline_mode_generous () =
  let inst = random_instance ~seed:14 ~m:6 () in
  match Bicriteria.with_deadlines inst ~eps:1 ~latency:1e9 with
  | Ok s -> assert_valid "generous deadline" s
  | Error _ -> Alcotest.fail "generous latency must be feasible"

let test_latency_profile () =
  let inst = random_instance ~seed:16 ~m:5 () in
  let profile = Bicriteria.latency_profile inst ~max_eps:10 in
  check_int "clamped to m-1" 5 (List.length profile);
  List.iteri
    (fun i (eps, lb, ub) ->
      check_int "eps sequence" i eps;
      check_bool "lb <= ub" true (lb <= ub +. 1e-9);
      let direct = Ftsa.schedule inst ~eps in
      check_float "matches a direct run" (Schedule.latency_lower_bound direct) lb)
    profile;
  (* the guaranteed latency grows with the failure budget *)
  let ubs = List.map (fun (_, _, ub) -> ub) profile in
  let rec non_decreasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && non_decreasing rest
    | _ -> true
  in
  check_bool "M grows with eps" true (non_decreasing ubs)

let test_ftsa_single_processor () =
  (* m=1 only admits eps=0; everything serializes on P0 *)
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  let t2 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:5.;
  Dag.Builder.add_edge b ~src:t0 ~dst:t2 ~volume:5.;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:1 ~unit_delay:1. in
  let inst =
    Instance.create ~dag ~platform ~exec:[| [| 2. |]; [| 3. |]; [| 4. |] |]
  in
  let s = Ftsa.schedule inst ~eps:0 in
  assert_valid "single proc" s;
  check_float "sum of execs" 9. (Schedule.latency_lower_bound s)

let test_ftsa_zero_volume_edges () =
  (* precedence without data: communication is free everywhere *)
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:0.;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:3 ~unit_delay:10. in
  let inst =
    Instance.create ~dag ~platform
      ~exec:[| [| 2.; 2.; 2. |]; [| 3.; 3.; 3. |] |]
  in
  let s = Ftsa.schedule inst ~eps:1 in
  assert_valid "zero volume" s;
  (* t1 can start right after t0 finishes, wherever it runs *)
  check_float "M* = 2 + 3" 5. (Schedule.latency_lower_bound s)

let test_deadline_mode_impossible () =
  let inst = random_instance ~seed:15 ~m:6 () in
  match Bicriteria.with_deadlines inst ~eps:2 ~latency:1e-3 with
  | Ok _ -> Alcotest.fail "cannot fit latency 0.001"
  | Error { Bicriteria.task; deadline; finish } ->
      check_bool "witness task in range" true
        (task >= 0 && task < Instance.n_tasks inst);
      check_bool "finish exceeds deadline" true (finish > deadline)

(* ------------------------------------------------------------------ *)
(* Warm-start workspace: reusing one Driver.workspace across calls must
   be invisible — bit-identical schedules versus the cold path, for
   varying instance sizes and eps so the pooled arrays shrink and grow,
   then at benchmark size: five replans of the v=800, m=50 layered
   instance. *)

let test_workspace_schedules_identical () =
  let ws = Ftsched_kernel.Driver.workspace () in
  let mc inst ~eps = Ftsa_policy.policy ~instance:inst ~eps
      ~mode:(Ftsa_policy.Min_comm Ftsa_policy.Greedy_edges) in
  let same name inst ~eps ~seed =
    let cold = Ftsa.schedule ~seed inst ~eps in
    let warm = Ftsa.schedule ~seed ~workspace:ws inst ~eps in
    check_bool (name ^ " warm = cold") true (warm = cold);
    let cold = Ftsa_policy.run ~seed ~instance:inst (mc inst ~eps) in
    let warm = Ftsa_policy.run ~seed ~workspace:ws ~instance:inst (mc inst ~eps) in
    check_bool (name ^ " MC-FTSA warm = cold") true (warm = cold)
  in
  List.iter
    (fun (n_tasks, m, eps, seed) ->
      same
        (Printf.sprintf "v=%d m=%d eps=%d" n_tasks m eps)
        (random_instance ~n_tasks ~m ~seed ())
        ~eps ~seed)
    [ (40, 6, 2, 1); (12, 3, 0, 2); (60, 8, 3, 3); (25, 4, 1, 4) ];
  let inst = layered_v800 () in
  for seed = 0 to 4 do
    same (Printf.sprintf "v=800 replan %d" seed) inst ~eps:2 ~seed
  done

(* Every scratch array is workspace-owned: FTSA (on the catalogue's
   per-domain workspace) and MC-FTSA (greedy, bottleneck, Redundant 2)
   run on distinct instances on two domains at once must give the
   one-domain plans, bit for bit. *)
let test_two_domains_bit_identical () =
  let instances =
    Array.init 6 (fun i -> random_instance ~n_tasks:150 ~m:8 ~seed:(300 + i) ())
  in
  let scheds =
    Array.map
      (fun name -> Option.get (Schedulers.find name))
      [| "ftsa"; "mc-ftsa"; "mc-bottleneck"; "mc-redundant" |]
  in
  let n_s = Array.length scheds in
  let plans jobs =
    Ftsched_par.Par.parallel_init ~jobs (Array.length instances * n_s) (fun i ->
        let s = scheds.(i mod n_s) and inst = instances.(i / n_s) in
        Ftsched_schedule.Serialize.schedule_to_string
          (s.Schedulers.run ~seed:i inst ~eps:2))
  in
  let one = plans 1 in
  List.iter
    (fun round ->
      Alcotest.(check (list string))
        (Printf.sprintf "jobs = 2 = jobs = 1, round %d" round)
        one (plans 2))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Scheduler catalogue                                                 *)

(* The one list the CLI, the daemon, the fuzzer and the tournament pick
   from.  Its order fixes the tournament's pair seeds, so it is pinned;
   MC-FTSA carries the paper's name. *)
let test_schedulers_registry () =
  Alcotest.(check (list string))
    "eleven schedulers, in order"
    [
      "ftsa"; "mc-ftsa"; "mc-bottleneck"; "mc-redundant"; "ca-ftsa"; "r-ftsa";
      "ftsa-domains"; "ftbar"; "heft"; "peft"; "cpop";
    ]
    Schedulers.names;
  List.iter
    (fun name ->
      match Schedulers.find name with
      | Some s -> Alcotest.(check string) "find" name s.Schedulers.name
      | None -> Alcotest.failf "find %S" name)
    Schedulers.names;
  (* each entry is the scheduler it names *)
  let inst = random_instance ~n_tasks:20 ~m:5 ~seed:3 () in
  let run name =
    (Option.get (Schedulers.find name)).Schedulers.run ~seed:4 inst ~eps:1
  in
  let same what a b =
    let doc = Ftsched_schedule.Serialize.schedule_to_string in
    Alcotest.(check string) what (doc b) (doc a)
  in
  same "ftsa entry = Ftsa.schedule" (run "ftsa") (Ftsa.schedule ~seed:4 inst ~eps:1);
  same "mc-ftsa entry = greedy MC-FTSA" (run "mc-ftsa")
    (Mc_ftsa.schedule ~seed:4 inst ~eps:1);
  check_int "fault-free entries ignore eps" 0 (Schedule.eps (run "heft"))

let () =
  Alcotest.run "core"
    [
      ( "edge-select",
        [
          Alcotest.test_case "greedy simple" `Quick test_greedy_simple;
          Alcotest.test_case "greedy forced first" `Quick test_greedy_forced_first;
          Alcotest.test_case "conflicting forced" `Quick
            test_greedy_conflicting_forced;
          Alcotest.test_case "max_weight missing pair" `Quick
            test_max_weight_missing_pair;
          Alcotest.test_case "bottleneck simple" `Quick
            test_bottleneck_optimal_simple;
          quick prop_bottleneck_matches_brute_force;
          quick prop_greedy_bijective_and_bounded;
          quick prop_flat_selectors_match_reference;
        ] );
      ( "schedulers",
        [ Alcotest.test_case "registry" `Quick test_schedulers_registry ] );
      ( "ftsa",
        [
          Alcotest.test_case "tiny hand trace" `Quick test_ftsa_tiny_trace;
          Alcotest.test_case "eps=0" `Quick test_ftsa_eps0_no_replication;
          Alcotest.test_case "eps=m-1" `Quick test_ftsa_eps_equals_m_minus_1;
          Alcotest.test_case "invalid eps" `Quick test_ftsa_invalid_eps;
          Alcotest.test_case "deterministic" `Quick test_ftsa_deterministic;
          Alcotest.test_case "single task" `Quick test_ftsa_single_task;
          Alcotest.test_case "independent tasks" `Quick test_ftsa_independent_tasks;
          Alcotest.test_case "message bound" `Quick test_ftsa_message_quadratic;
          quick prop_ftsa_valid;
          quick prop_ftsa_survives_exhaustive;
          quick prop_ftsa_bounds_ordered;
          quick prop_ftsa_matches_reference_oracle;
          Alcotest.test_case "workspace reuse bit-identical" `Quick
            test_workspace_schedules_identical;
          Alcotest.test_case "two domains bit-identical" `Quick
            test_two_domains_bit_identical;
        ] );
      ( "mc-ftsa",
        [
          Alcotest.test_case "eps=0 equals FTSA" `Quick test_mc_eps0_equals_ftsa;
          quick prop_mc_valid;
          quick prop_mc_bottleneck_valid;
          quick prop_mc_linear_messages;
          quick prop_mc_fewer_messages_than_ftsa;
          quick prop_mc_single_sender_per_input;
        ] );
      ( "domains",
        [
          quick prop_domains_valid_and_distinct;
          quick prop_domains_survive_domain_failures;
          Alcotest.test_case "identity domains = FTSA" `Quick
            test_domains_identity_is_ftsa;
          Alcotest.test_case "plain FTSA is domain-fragile" `Quick
            test_plain_ftsa_breaks_under_domain_failures;
          Alcotest.test_case "bad inputs" `Quick test_domains_bad_inputs;
        ] );
      ( "r-ftsa",
        [
          quick prop_rftsa_valid;
          quick prop_rftsa_survives;
          Alcotest.test_case "alpha=0 matches FTSA set" `Quick
            test_rftsa_alpha_zero_matches_ftsa_set;
          Alcotest.test_case "bounded slack" `Quick test_rftsa_latency_bounded_slack;
          Alcotest.test_case "improves mission reliability" `Slow
            test_rftsa_improves_mission_reliability;
          Alcotest.test_case "rejects bad inputs" `Quick
            test_rftsa_rejects_bad_inputs;
        ] );
      ( "ca-ftsa",
        [
          quick prop_ca_valid;
          quick prop_ca_survives;
          Alcotest.test_case "unlimited ports = FTSA" `Quick
            test_ca_unlimited_ports_is_ftsa;
          Alcotest.test_case "beats FTSA under one-port" `Slow
            test_ca_beats_ftsa_under_one_port;
          Alcotest.test_case "rejects bad ports" `Quick test_ca_rejects_bad_ports;
        ] );
      ( "redundant",
        [
          quick prop_redundant_valid;
          quick prop_redundant_message_budget;
          Alcotest.test_case "k=1 equals greedy" `Quick
            test_redundant_one_equals_greedy;
          Alcotest.test_case "robustness improves" `Slow
            test_redundant_improves_robustness;
          Alcotest.test_case "edge counts" `Quick test_edge_select_redundant_counts;
        ] );
      ( "bicriteria",
        [
          Alcotest.test_case "huge budget" `Quick test_bicriteria_huge_budget;
          Alcotest.test_case "tiny budget" `Quick test_bicriteria_tiny_budget;
          Alcotest.test_case "result fits" `Quick test_bicriteria_result_fits;
          Alcotest.test_case "bound modes" `Quick test_bicriteria_lower_bound_mode;
          Alcotest.test_case "deadlines: generous" `Quick test_deadline_mode_generous;
          Alcotest.test_case "deadlines: impossible" `Quick
            test_deadline_mode_impossible;
          Alcotest.test_case "latency profile" `Quick test_latency_profile;
        ] );
      ( "corner-cases",
        [
          Alcotest.test_case "single processor" `Quick test_ftsa_single_processor;
          Alcotest.test_case "zero-volume edges" `Quick test_ftsa_zero_volume_edges;
        ] );
    ]

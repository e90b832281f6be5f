(* Tests for Ftsched_schedule: comm plans, schedule accessors/bounds,
   validators, Gantt rendering.

   Most checks use [Helpers.hand_schedule]: the tiny 3-task chain
   (volumes 10, 20; mutual delay 0.5; exec [[2;4],[3;3],[5;1]]) mapped
   with eps = 1 exactly as FTSA would, M* = 8 and M = 25. *)

module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan
module Validate = Ftsched_schedule.Validate
module Gantt = Ftsched_schedule.Gantt
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Event_sim = Ftsched_sim.Event_sim
module Crash_exec_ref = Ftsched_oracle.Crash_exec_ref
module Event_sim_ref = Ftsched_oracle.Event_sim_ref
open Helpers

(* ------------------------------------------------------------------ *)
(* Comm_plan                                                           *)

(* The senders of [(e, dst)], by the per-destination walk. *)
let senders plan ~eps e ~dst =
  let into = Array.make (Comm_plan.widest plan ~eps) (-1) in
  Array.to_list (Array.sub into 0 (Comm_plan.senders plan ~eps e ~dst into))

let pairs_of plan ~eps e =
  List.map
    (fun p -> (p.Comm_plan.src_replica, p.Comm_plan.dst_replica))
    (Comm_plan.to_list plan ~eps e)

let test_all_to_all_pairs () =
  let pairs = pairs_of Comm_plan.all_to_all ~eps:2 0 in
  check_int "9 pairs" 9 (List.length pairs);
  check_bool "contains 1->2" true (List.mem (1, 2) pairs);
  Alcotest.(check (list (pair int int)))
    "source-major, destinations in index order"
    (List.concat_map (fun s -> List.init 3 (fun d -> (s, d))) [ 0; 1; 2 ])
    pairs;
  Alcotest.(check (list (pair int int))) "eps 0" [ (0, 0) ]
    (pairs_of Comm_plan.all_to_all ~eps:0 5)

let test_senders_to () =
  let sel =
    Comm_plan.of_lists
      [| [ { Comm_plan.src_replica = 0; dst_replica = 1 };
           { Comm_plan.src_replica = 1; dst_replica = 0 } ] |]
  in
  Alcotest.(check (list int)) "selected sender" [ 1 ]
    (senders sel ~eps:1 0 ~dst:0);
  Alcotest.(check (list int)) "all-to-all senders" [ 0; 1 ]
    (senders Comm_plan.all_to_all ~eps:1 0 ~dst:0);
  Alcotest.(check (list int)) "all-to-all senders, eps 3" [ 0; 1; 2; 3 ]
    (senders Comm_plan.all_to_all ~eps:3 7 ~dst:2)

(* Rows keep the order they were written in, pair by pair or in one
   [write_row] (which reads only the first [n] entries), empty rows stay
   empty, a row is written once, and the walks read exactly the rows. *)
let test_builder_rows () =
  let b = Comm_plan.builder () in
  Comm_plan.clear b ~n_edges:3;
  Comm_plan.write_row b 2 ~n:3 ~srcs:[| 1; 0; 1; 7 |] ~dsts:[| 0; 0; 1; 7 |];
  Alcotest.check_raises "row written twice in one call"
    (Invalid_argument "Comm_plan.start_row: row written twice") (fun () ->
      Comm_plan.write_row b 2 ~n:0 ~srcs:[||] ~dsts:[||]);
  Comm_plan.start_row b 0;
  Comm_plan.push b ~src:1 ~dst:1;
  Alcotest.check_raises "row written twice"
    (Invalid_argument "Comm_plan.start_row: row written twice") (fun () ->
      Comm_plan.start_row b 0);
  Alcotest.(check (list (pair int int))) "row 0 so far" [ (1, 1) ]
    (Comm_plan.row_list b 0);
  let plan = Comm_plan.build b in
  check_bool "fits 3 edges" true (Comm_plan.fits plan ~n_edges:3);
  check_int "widest row" 3 (Comm_plan.widest plan ~eps:1);
  check_int "widest all-to-all row" 9 (Comm_plan.widest Comm_plan.all_to_all ~eps:2);
  check_bool "not 4" false (Comm_plan.fits plan ~n_edges:4);
  check_bool "all-to-all fits any" true
    (Comm_plan.fits Comm_plan.all_to_all ~n_edges:4);
  Alcotest.(check (list (pair int int))) "row 0" [ (1, 1) ]
    (pairs_of plan ~eps:1 0);
  Alcotest.(check (list (pair int int))) "empty row" [] (pairs_of plan ~eps:1 1);
  Alcotest.(check (list (pair int int))) "row order kept"
    [ (1, 0); (0, 0); (1, 1) ] (pairs_of plan ~eps:1 2);
  Alcotest.(check (list int)) "senders of 0, row order" [ 1; 0 ]
    (senders plan ~eps:1 2 ~dst:0);
  Alcotest.(check (list int)) "no sender" [] (senders plan ~eps:1 1 ~dst:0);
  check_bool "equal to the list constructor" true
    (plan
    = Comm_plan.of_lists
        (Array.map
           (List.map (fun (s, d) -> { Comm_plan.src_replica = s; dst_replica = d }))
           [| [ (1, 1) ]; []; [ (1, 0); (0, 0); (1, 1) ] |]));
  Alcotest.check_raises "negative replica"
    (Invalid_argument "Comm_plan.push: replica index out of range") (fun () ->
      Comm_plan.push b ~src:(-1) ~dst:0);
  Alcotest.check_raises "edge out of range"
    (Invalid_argument "Comm_plan.start_row: edge") (fun () ->
      Comm_plan.start_row b 3);
  Comm_plan.clear b ~n_edges:1;
  Alcotest.check_raises "negative replica in one call"
    (Invalid_argument "Comm_plan.write_row: replica index out of range")
    (fun () -> Comm_plan.write_row b 0 ~n:1 ~srcs:[| 0 |] ~dsts:[| -1 |])

(* [receivers] over a run of edges, against the list view: for each
   edge in run order, the row's pairs with that source, in row order,
   written from [at] on; under all-to-all the destinations 0 … eps. *)
let receivers_match plan ~eps edges ~lo ~hi =
  let w = (hi - lo) * Comm_plan.widest plan ~eps in
  let at = 3 in
  let idx = Array.make (at + w) (-1) and dsts = Array.make (at + w) (-1) in
  List.for_all
    (fun src ->
      let n =
        Comm_plan.receivers plan ~eps edges ~lo ~hi ~src ~idx ~dsts ~at
      in
      let got = List.init (n - at) (fun i -> (idx.(at + i), dsts.(at + i))) in
      let want =
        List.concat
          (List.init (hi - lo) (fun i ->
               let j = lo + i in
               List.filter_map
                 (fun p ->
                   if p.Comm_plan.src_replica = src then
                     Some (j, p.Comm_plan.dst_replica)
                   else None)
                 (Comm_plan.to_list plan ~eps edges.(j))))
      in
      got = want && idx.(at - 1) = -1)
    (List.init (eps + 1) Fun.id)

let test_receivers () =
  let row l =
    List.map (fun (s, d) -> { Comm_plan.src_replica = s; dst_replica = d }) l
  in
  (* redundant rows: one source feeding two destinations, out of index
     order, and an empty row *)
  let plan =
    Comm_plan.of_lists
      [| row [ (1, 2); (0, 0); (1, 0); (2, 1) ];
         row [];
         row [ (2, 2); (2, 0); (0, 1); (1, 1); (0, 2) ];
         row [ (0, 0); (1, 1); (2, 2) ] |]
  in
  let edges = [| 3; 0; 2; 1; 2 |] in
  check_bool "hand rows" true (receivers_match plan ~eps:2 edges ~lo:0 ~hi:5);
  check_bool "a sub-run" true (receivers_match plan ~eps:2 edges ~lo:1 ~hi:3);
  check_bool "an empty run" true (receivers_match plan ~eps:2 edges ~lo:2 ~hi:2);
  let idx = Array.make 16 0 and dsts = Array.make 16 0 in
  let n =
    Comm_plan.receivers plan ~eps:2 edges ~lo:1 ~hi:3 ~src:1 ~idx ~dsts ~at:0
  in
  Alcotest.(check (list (pair int int))) "source 1: edge 0 row order, then edge 2"
    [ (1, 2); (1, 0); (2, 1) ]
    (List.init n (fun i -> (idx.(i), dsts.(i))));
  let n =
    Comm_plan.receivers Comm_plan.all_to_all ~eps:2 edges ~lo:0 ~hi:2 ~src:1
      ~idx ~dsts ~at:0
  in
  Alcotest.(check (list (pair int int))) "all-to-all: 0 … eps per edge"
    [ (0, 0); (0, 1); (0, 2); (1, 0); (1, 1); (1, 2) ]
    (List.init n (fun i -> (idx.(i), dsts.(i))));
  (* scheduled plans, over every task's successor row *)
  for seed = 0 to 19 do
    let inst = random_instance ~seed ~n_tasks:(4 + seed) ~m:(3 + (seed mod 3)) () in
    let g = Instance.dag inst in
    let eps = 1 + (seed mod 2) in
    let off = Dag.Csr.succ_offsets g and edges = Dag.Csr.succ_edges g in
    List.iter
      (fun (name, plan) ->
        for t = 0 to Dag.n_tasks g - 1 do
          if not (receivers_match plan ~eps edges ~lo:off.(t) ~hi:off.(t + 1))
          then Alcotest.failf "%s seed %d task %d" name seed t
        done)
      [
        ("all-to-all", Comm_plan.all_to_all);
        ("mc-ftsa", Schedule.comm (Ftsched_core.Mc_ftsa.schedule ~seed inst ~eps));
        ( "mc-ftsa redundant 2",
          Schedule.comm
            (Ftsched_core.Mc_ftsa.schedule ~seed
               ~strategy:(Ftsched_core.Mc_ftsa.Redundant 2) inst ~eps) );
      ]
  done

(* [sender_counts] over a predecessor row, against counts of the list
   view's pairs: the slot of destination replica [d] and row index [j]
   holds how many of [edges.(j)]'s pairs feed [d], written from [at] on
   in one replica-major block, nothing outside it. *)
let sender_counts_match plan ~eps edges ~lo ~hi =
  let n = hi - lo and at = 3 in
  let counts = Array.make (at + ((eps + 1) * n) + 2) (-1) in
  Comm_plan.sender_counts plan ~eps edges ~lo ~hi ~counts ~at;
  let ok = ref (counts.(at - 1) = -1 && counts.(at + ((eps + 1) * n)) = -1) in
  for d = 0 to eps do
    for j = lo to hi - 1 do
      let want =
        List.length
          (List.filter
             (fun p -> p.Comm_plan.dst_replica = d)
             (Comm_plan.to_list plan ~eps edges.(j)))
      in
      if counts.(at + (d * n) + (j - lo)) <> want then ok := false
    done
  done;
  !ok

let test_sender_counts () =
  let row l =
    List.map (fun (s, d) -> { Comm_plan.src_replica = s; dst_replica = d }) l
  in
  (* redundant rows: one source feeding two destinations, two sources
     feeding one, and an empty row *)
  let plan =
    Comm_plan.of_lists
      [| row [ (1, 2); (0, 0); (1, 0); (2, 1) ];
         row [];
         row [ (2, 2); (2, 0); (0, 1); (1, 1); (0, 2) ];
         row [ (0, 1); (0, 2) ] |]
  in
  let edges = [| 3; 0; 2; 1; 2 |] in
  check_bool "hand rows" true (sender_counts_match plan ~eps:2 edges ~lo:0 ~hi:5);
  check_bool "a sub-run" true (sender_counts_match plan ~eps:2 edges ~lo:1 ~hi:3);
  check_bool "an empty run" true
    (sender_counts_match plan ~eps:2 edges ~lo:2 ~hi:2);
  let counts = Array.make 6 0 in
  Comm_plan.sender_counts plan ~eps:2 edges ~lo:0 ~hi:1 ~counts ~at:2;
  Alcotest.(check (array int)) "one source feeding two: counted per destination"
    [| 0; 0; 0; 1; 1; 0 |] counts;
  check_bool "all-to-all" true
    (sender_counts_match Comm_plan.all_to_all ~eps:2 edges ~lo:0 ~hi:5);
  (* scheduled plans, over every task's predecessor row *)
  for seed = 0 to 19 do
    let inst = random_instance ~seed ~n_tasks:(4 + seed) ~m:(3 + (seed mod 3)) () in
    let g = Instance.dag inst in
    let eps = 1 + (seed mod 2) in
    let off = Dag.Csr.pred_offsets g and edges = Dag.Csr.pred_edges g in
    let mc strategy =
      Schedule.comm (Ftsched_core.Mc_ftsa.schedule ~seed ~strategy inst ~eps)
    in
    List.iter
      (fun (name, plan) ->
        for t = 0 to Dag.n_tasks g - 1 do
          if not (sender_counts_match plan ~eps edges ~lo:off.(t) ~hi:off.(t + 1))
          then Alcotest.failf "%s seed %d task %d" name seed t
        done)
      [
        ("all-to-all", Comm_plan.all_to_all);
        ("mc-ftsa", mc Ftsched_core.Mc_ftsa.Greedy);
        ("mc-ftsa bottleneck", mc Ftsched_core.Mc_ftsa.Bottleneck);
        ("mc-ftsa redundant 2", mc (Ftsched_core.Mc_ftsa.Redundant 2));
      ]
  done

let test_is_one_to_one () =
  let one pairs ~eps = one_to_one_pairs pairs ~eps in
  check_bool "valid bijection" true (one [ (0, 1); (1, 0) ] ~eps:1);
  check_bool "repeated source" false (one [ (0, 0); (0, 1) ] ~eps:1);
  check_bool "repeated target" false (one [ (0, 0); (1, 0) ] ~eps:1);
  check_bool "wrong cardinality" false (one [ (0, 0) ] ~eps:1);
  check_bool "out of range" false (one [ (0, 0); (1, 5) ] ~eps:1)

let test_is_one_to_one_edge_cases () =
  let one pairs ~eps = one_to_one_pairs pairs ~eps in
  (* a duplicated pair has the right length but repeats both endpoints *)
  check_bool "duplicate pair" false (one [ (0, 1); (0, 1) ] ~eps:1);
  (* a replica index is never negative: the plan refuses to hold one *)
  Alcotest.check_raises "negative source"
    (Invalid_argument "Comm_plan.push: replica index out of range") (fun () ->
      ignore (one [ (-1, 0); (1, 1) ] ~eps:1));
  Alcotest.check_raises "negative target"
    (Invalid_argument "Comm_plan.push: replica index out of range") (fun () ->
      ignore (one [ (0, -1); (1, 1) ] ~eps:1));
  check_bool "source out of range" false (one [ (2, 0); (1, 1) ] ~eps:1);
  check_bool "empty list" false (one [] ~eps:1);
  (* eps = 0: the only bijection on one replica *)
  check_bool "singleton identity" true (one [ (0, 0) ] ~eps:0);
  check_bool "empty at eps 0" false (one [] ~eps:0);
  (* a 3-cycle is a perfectly good bijection, no need for the identity *)
  check_bool "3-cycle" true (one [ (0, 1); (1, 2); (2, 0) ] ~eps:2);
  check_bool "all-to-all at eps 0" true
    (Comm_plan.is_one_to_one Comm_plan.all_to_all ~eps:0 0);
  check_bool "all-to-all at eps 1" false
    (Comm_plan.is_one_to_one Comm_plan.all_to_all ~eps:1 0)

(* ------------------------------------------------------------------ *)
(* Schedule construction and accessors                                 *)

let test_create_validation () =
  let inst = tiny_instance () in
  let reps = hand_replicas () in
  Alcotest.check_raises "eps out of range"
    (Invalid_argument "Schedule.create: eps out of range") (fun () ->
      ignore (Schedule.create ~instance:inst ~eps:2 ~replicas:reps
                ~comm:Comm_plan.all_to_all));
  let bad = hand_replicas () in
  bad.(1) <- [| bad.(1).(0) |];
  Alcotest.check_raises "wrong replica count"
    (Invalid_argument "Schedule.create: wrong replica count") (fun () ->
      ignore (Schedule.create ~instance:inst ~eps:1 ~replicas:bad
                ~comm:Comm_plan.all_to_all));
  let mislabeled = hand_replicas () in
  mislabeled.(0).(0) <- { (mislabeled.(0).(0)) with task = 2 } ;
  Alcotest.check_raises "mislabelled"
    (Invalid_argument "Schedule.create: replica mislabelled") (fun () ->
      ignore (Schedule.create ~instance:inst ~eps:1 ~replicas:mislabeled
                ~comm:Comm_plan.all_to_all));
  let bad_proc = hand_replicas () in
  bad_proc.(0).(0) <- { (bad_proc.(0).(0)) with proc = 9 } ;
  Alcotest.check_raises "bad processor"
    (Invalid_argument "Schedule.create: bad processor") (fun () ->
      ignore (Schedule.create ~instance:inst ~eps:1 ~replicas:bad_proc
                ~comm:Comm_plan.all_to_all));
  let bad_dur = hand_replicas () in
  bad_dur.(0).(0) <- { (bad_dur.(0).(0)) with finish = -1. } ;
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Schedule.create: negative duration") (fun () ->
      ignore (Schedule.create ~instance:inst ~eps:1 ~replicas:bad_dur
                ~comm:Comm_plan.all_to_all));
  Alcotest.check_raises "comm plan size"
    (Invalid_argument "Schedule.create: comm plan edge count") (fun () ->
      ignore (Schedule.create ~instance:inst ~eps:1 ~replicas:(hand_replicas ())
                ~comm:(Comm_plan.of_lists [||])))

let test_accessors () =
  let s = hand_schedule () in
  check_int "eps" 1 (Schedule.eps s);
  check_int "n_replicas" 2 (Schedule.n_replicas s);
  check_int "proc of t2 replica 0" 1 (Schedule.proc_of s 2 0);
  Alcotest.(check (array int)) "assigned procs t2" [| 1; 0 |]
    (Schedule.assigned_procs s 2);
  (match Schedule.replica_on s 1 ~proc:1 with
  | Some rep -> check_int "replica_on finds index" 1 rep.Schedule.index
  | None -> Alcotest.fail "replica_on missed");
  check_bool "replica_on absent" true (Schedule.replica_on s 1 ~proc:5 = None)

let test_mapping_matrix () =
  let s = hand_schedule () in
  let x = Schedule.mapping_matrix s in
  check_bool "t0 on both" true (x.(0).(0) && x.(0).(1));
  check_bool "exactly v rows" true (Array.length x = 3)

let test_proc_timeline_sorted () =
  let s = hand_schedule () in
  let tl = Array.to_list (Schedule.timeline s 0) in
  let starts = List.map (fun rep -> rep.Schedule.start) tl in
  Alcotest.(check (list (float 1e-9))) "sorted" [ 0.; 2.; 5. ] starts

(* The planned order's tie rules, on a hand-built plan over a fork-join
   t0, t1 -> t2 -> t3 (eps = 1, three processors): t0 and t1 both start
   at 0 on P0, and both replicas of t2 sit on P1 with the same start, a
   malformed plan [Schedule.create] accepts.  The order is (start, task,
   replica index descending); every replay reads it, so the flat crash
   replay and event engine must still agree with their references on it. *)
let tie_schedule () =
  let b = Dag.Builder.create () in
  let t = Array.init 4 (fun _ -> Dag.Builder.add_task b) in
  Dag.Builder.add_edge b ~src:t.(0) ~dst:t.(2) ~volume:2.;
  Dag.Builder.add_edge b ~src:t.(1) ~dst:t.(2) ~volume:4.;
  Dag.Builder.add_edge b ~src:t.(2) ~dst:t.(3) ~volume:2.;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:3 ~unit_delay:0.5 in
  let exec =
    [| [| 2.; 3.; 2. |]; [| 1.; 2.; 4. |]; [| 3.; 2.; 2. |]; [| 1.; 1.; 1. |] |]
  in
  let r task index proc s f = replica ~task ~index ~proc ~s ~f ~ps:s ~pf:f in
  Schedule.create ~instance:(Instance.create ~dag ~platform ~exec) ~eps:1
    ~comm:Comm_plan.all_to_all
    ~replicas:
      [|
        [| r 0 0 0 0. 2.; r 0 1 1 0. 3. |];
        [| r 1 0 0 0. 1.; r 1 1 2 0. 4. |];
        [| r 2 0 1 5. 7.; r 2 1 1 5. 7. |];
        [| r 3 0 0 8. 9.; r 3 1 2 8. 9. |];
      |]

let test_timeline_ties () =
  let s = tie_schedule () in
  let order p =
    List.map (fun (r : Schedule.replica) -> (r.task, r.index))
      (Array.to_list (Schedule.timeline s p))
  in
  let pairs = Alcotest.(list (pair int int)) in
  Alcotest.check pairs "P0: equal starts by task" [ (0, 0); (1, 0); (3, 0) ]
    (order 0);
  Alcotest.check pairs "P1: one task's replicas by index descending"
    [ (0, 1); (2, 1); (2, 0) ] (order 1);
  Alcotest.check pairs "P2" [ (1, 1); (3, 1) ] (order 2);
  List.iter
    (fun failed ->
      let sc = Scenario.of_list (Array.to_list failed) in
      List.iter
        (fun policy ->
          check_bool "Crash_exec = reference" true
            (Crash_exec.run ~policy s sc = Crash_exec_ref.run ~policy s sc))
        [ Crash_exec.Strict; Crash_exec.Reroute ];
      List.iter
        (fun at ->
          let fail_times = Array.make 3 infinity in
          Array.iter (fun p -> fail_times.(p) <- at) failed;
          check_bool "Event_sim = reference" true
            (Event_sim.run s ~fail_times = Event_sim_ref.run s ~fail_times))
        [ 0.; 1.5; 6. ])
    (subsets_up_to ~m:3 ~k:2)

let test_bounds () =
  let s = hand_schedule () in
  check_float "M*" 8. (Schedule.latency_lower_bound s);
  check_float "M" 25. (Schedule.latency_upper_bound s)

let test_busy_time () =
  let s = hand_schedule () in
  check_float "P0 busy 2+3+5" 10. (Schedule.busy_time s 0);
  check_float "P1 busy 4+3+1" 8. (Schedule.busy_time s 1)

let test_message_count_all_to_all () =
  let s = hand_schedule () in
  (* every receiver is colocated with a sender replica (procs {0,1} for
     all tasks), so the intra-processor shortcut suppresses everything *)
  check_int "all local" 0 (Schedule.inter_processor_messages s);
  check_float "volume" 0. (Schedule.total_comm_volume s)

let test_message_count_spread () =
  (* Same chain but t1's replicas on disjoint procs from t0's: build a
     4-processor platform variant. *)
  let b = Ftsched_dag.Dag.Builder.create () in
  let t0 = Ftsched_dag.Dag.Builder.add_task b in
  let t1 = Ftsched_dag.Dag.Builder.add_task b in
  Ftsched_dag.Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:10.;
  let dag = Ftsched_dag.Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:4 ~unit_delay:1. in
  let exec = [| [| 1.; 1.; 1.; 1. |]; [| 1.; 1.; 1.; 1. |] |] in
  let inst = Instance.create ~dag ~platform ~exec in
  let reps =
    [|
      [| replica ~task:0 ~index:0 ~proc:0 ~s:0. ~f:1. ~ps:0. ~pf:1.;
         replica ~task:0 ~index:1 ~proc:1 ~s:0. ~f:1. ~ps:0. ~pf:1. |];
      [| replica ~task:1 ~index:0 ~proc:2 ~s:11. ~f:12. ~ps:11. ~pf:12.;
         replica ~task:1 ~index:1 ~proc:3 ~s:11. ~f:12. ~ps:11. ~pf:12. |];
    |]
  in
  let s_all =
    Schedule.create ~instance:inst ~eps:1 ~replicas:reps
      ~comm:Comm_plan.all_to_all
  in
  check_int "4 cross messages" 4 (Schedule.inter_processor_messages s_all);
  check_float "40 units" 40. (Schedule.total_comm_volume s_all);
  let s_sel =
    Schedule.create ~instance:inst ~eps:1 ~replicas:reps
      ~comm:
        (Comm_plan.of_lists
           [| [ { Comm_plan.src_replica = 0; dst_replica = 0 };
                { Comm_plan.src_replica = 1; dst_replica = 1 } ] |])
  in
  check_int "2 selected messages" 2 (Schedule.inter_processor_messages s_sel);
  assert_valid "selected" s_sel

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)

let test_validate_ok () = assert_valid "hand schedule" (hand_schedule ())

let test_validate_duplicate_proc () =
  let reps = hand_replicas () in
  reps.(0).(1) <- { (reps.(0).(1)) with proc = 0; finish = 2.; start = 0. } ;
  let s =
    Schedule.create ~instance:(tiny_instance ()) ~eps:1 ~replicas:reps
      ~comm:Comm_plan.all_to_all
  in
  let errs = Validate.distinct_replica_procs s in
  check_bool "caught" true
    (List.exists (fun e -> e.Validate.check = "distinct-procs") errs)

let test_validate_overlap () =
  let reps = hand_replicas () in
  (* force t1's P0 replica to start before t0's P0 replica finishes *)
  reps.(1).(0) <- { (reps.(1).(0)) with start = 1.; finish = 4. } ;
  let s =
    Schedule.create ~instance:(tiny_instance ()) ~eps:1 ~replicas:reps
      ~comm:Comm_plan.all_to_all
  in
  let errs = Validate.no_processor_overlap s in
  check_bool "caught" true
    (List.exists (fun e -> e.Validate.check = "no-overlap") errs)

(* [Schedule.create]'s dedicated sort against [Array.stable_sort] by
   (start, task, index descending), on random replica tables: tie-heavy
   starts drawn from four values or spread ones, and processors drawn
   with replacement, so two replicas of one task can share a processor
   (a malformed plan [create] accepts). *)
let prop_planned_order_equals_stable_sort =
  let planned_order (a : Schedule.replica) (b : Schedule.replica) =
    match Float.compare a.start b.start with
    | 0 -> (
        match Int.compare a.task b.task with
        | 0 -> Int.compare b.index a.index
        | c -> c)
    | c -> c
  in
  QCheck.Test.make ~name:"planned order = stable sort" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let v = 1 + Rng.int rng 60 and m = 1 + Rng.int rng 6 in
      let eps = Rng.int rng (min 3 m) in
      let ties = Rng.bool rng in
      let b = Dag.Builder.create () in
      for _ = 1 to v do
        ignore (Dag.Builder.add_task b)
      done;
      let instance =
        Instance.create ~dag:(Dag.Builder.build b)
          ~platform:(Platform.homogeneous ~m ~unit_delay:1.)
          ~exec:(Array.make_matrix v m 1.)
      in
      let replicas =
        Array.init v (fun task ->
            Array.init (eps + 1) (fun index ->
                let s =
                  if ties then float_of_int (Rng.int rng 4)
                  else Rng.float_in rng 0. 100.
                in
                replica ~task ~index ~proc:(Rng.int rng m) ~s ~f:(s +. 1.)
                  ~ps:s ~pf:(s +. 1.)))
      in
      let s =
        Schedule.create ~instance ~eps ~replicas ~comm:Comm_plan.all_to_all
      in
      List.for_all
        (fun p ->
          let want =
            Array.of_list
              (List.filter
                 (fun (r : Schedule.replica) -> r.proc = p)
                 (List.concat_map Array.to_list (Array.to_list replicas)))
          in
          Array.stable_sort planned_order want;
          Array.map (fun (r : Schedule.replica) -> (r.task, r.index)) want
          = Array.map
              (fun (r : Schedule.replica) -> (r.task, r.index))
              (Schedule.timeline s p))
        (List.init m Fun.id))

(* ---- regression: a replica table out of start order ----------------
   The overlap scan only compares neighbours, so it must walk each
   processor's planned order, not the order of the replica table; read
   in table order it used to miss overlaps. *)

let test_validate_unsorted_timeline () =
  let overlaps reps =
    let s =
      Schedule.create ~instance:(tiny_instance ()) ~eps:1 ~replicas:reps
        ~comm:Comm_plan.all_to_all
    in
    List.length
      (List.filter
         (fun e -> e.Validate.check = "no-overlap")
         (Validate.no_processor_overlap s))
  in
  (* t0's P0 replica, listed first, now runs last on P0: no overlap *)
  let reps = hand_replicas () in
  reps.(0).(0) <- { (reps.(0).(0)) with start = 12.; finish = 14. };
  check_int "table out of start order, no overlap" 0 (overlaps reps);
  (* t2's P0 replica, listed after t1's, now starts between t0's and
     t1's and overlaps both neighbours *)
  let reps = hand_replicas () in
  reps.(2).(1) <- { (reps.(2).(1)) with start = 1.; finish = 6. };
  check_int "overlap still reported, both neighbours" 2 (overlaps reps)

let test_validate_early_start () =
  let reps = hand_replicas () in
  (* t2 on P1 starting at 0 cannot have its inputs *)
  reps.(2).(0) <- { (reps.(2).(0)) with start = 0.; finish = 1. } ;
  let s =
    Schedule.create ~instance:(tiny_instance ()) ~eps:1 ~replicas:reps
      ~comm:Comm_plan.all_to_all
  in
  let errs = Validate.data_feasible s in
  check_bool "caught" true
    (List.exists (fun e -> e.Validate.check = "arrival-opt") errs)

let test_validate_wrong_duration () =
  let reps = hand_replicas () in
  reps.(0).(0) <- { (reps.(0).(0)) with finish = 3. } ;
  let s =
    Schedule.create ~instance:(tiny_instance ()) ~eps:1 ~replicas:reps
      ~comm:Comm_plan.all_to_all
  in
  let errs = Validate.data_feasible s in
  check_bool "caught" true
    (List.exists (fun e -> e.Validate.check = "duration") errs)

let test_validate_selection_not_bijective () =
  let sel =
    Comm_plan.of_lists
      [|
        [ { Comm_plan.src_replica = 0; dst_replica = 0 };
          { Comm_plan.src_replica = 1; dst_replica = 0 } ];
        [ { Comm_plan.src_replica = 0; dst_replica = 0 };
          { Comm_plan.src_replica = 1; dst_replica = 1 } ];
      |]
  in
  let s =
    Schedule.create ~instance:(tiny_instance ()) ~eps:1
      ~replicas:(hand_replicas ()) ~comm:sel
  in
  let errs = Validate.robust_selection s in
  check_bool "caught" true
    (List.exists (fun e -> e.Validate.check = "one-to-one") errs)

let test_validate_forced_internal () =
  (* edge t0->t1: t0 replica 0 on P0 is colocated with t1 replica 0 on P0,
     so sending to replica 1 instead violates the forced rule. *)
  let sel =
    Comm_plan.of_lists
      [|
        [ { Comm_plan.src_replica = 0; dst_replica = 1 };
          { Comm_plan.src_replica = 1; dst_replica = 0 } ];
        [ { Comm_plan.src_replica = 0; dst_replica = 0 };
          { Comm_plan.src_replica = 1; dst_replica = 1 } ];
      |]
  in
  let s =
    Schedule.create ~instance:(tiny_instance ()) ~eps:1
      ~replicas:(hand_replicas ()) ~comm:sel
  in
  let errs = Validate.robust_selection s in
  check_bool "caught" true
    (List.exists (fun e -> e.Validate.check = "forced-internal") errs)

(* The flat [Validate.data_feasible] against the frozen list-based one
   ([Validate_ref]): the same errors, in the same order, on FTSA and
   MC-FTSA plans (one and two senders per replica) as scheduled, and on
   copies with shifted or stretched replicas and dropped messages.  The
   broken copies must raise every kind of error the check reports. *)
let test_data_feasible_matches_ref () =
  let module Validate_ref = Ftsched_oracle.Validate_ref in
  let module Mc = Ftsched_core.Mc_ftsa in
  let seen = Hashtbl.create 8 in
  let race what s =
    let got = Validate.data_feasible s in
    List.iter (fun e -> Hashtbl.replace seen e.Validate.check ()) got;
    if got <> Validate_ref.data_feasible s then
      Alcotest.failf "%s: flat and list checks disagree" what
  in
  for seed = 0 to 59 do
    let m = 2 + (seed mod 5) in
    let inst = random_instance ~seed ~n_tasks:(3 + (seed mod 23)) ~m () in
    let eps = seed mod m in
    let rng = Rng.create ~seed in
    let broken s =
      let replicas =
        Array.init (Instance.n_tasks inst) (fun t ->
            Array.map
              (fun (r : Schedule.replica) ->
                match Rng.int rng 8 with
                | 0 ->
                    let d = Rng.float_in rng 0. 5. in
                    { r with start = r.start -. d; finish = r.finish -. d }
                | 1 -> { r with finish = r.finish +. 1. }
                | 2 -> { r with pess_start = r.pess_start -. 2. }
                | _ -> r)
              (Schedule.replicas s t))
      in
      let comm =
        let plan = Schedule.comm s in
        if Comm_plan.is_all_to_all plan then plan
        else
          Comm_plan.of_lists
            (Array.init (Dag.n_edges (Instance.dag inst)) (fun e ->
                 List.filter
                   (fun _ -> Rng.int rng 4 > 0)
                   (Comm_plan.to_list plan ~eps e)))
      in
      Schedule.create ~instance:inst ~eps ~replicas ~comm
    in
    List.iter
      (fun (name, s) ->
        let what = Printf.sprintf "%s seed %d" name seed in
        race what s;
        race (what ^ " broken") (broken s))
      [
        ("ftsa", Ftsched_core.Ftsa.schedule ~seed inst ~eps);
        ("mc-ftsa", Mc.schedule ~seed inst ~eps);
        ("mc-ftsa redundant 2", Mc.schedule ~seed ~strategy:(Mc.Redundant 2) inst ~eps);
      ]
  done;
  List.iter
    (fun check -> check_bool (check ^ " exercised") true (Hashtbl.mem seen check))
    [ "negative-start"; "duration"; "senders"; "arrival-opt"; "arrival-pess" ]

(* A plan pair naming a source replica above eps is a validation error,
   not an exception: the seed-2008 paper instance's MC-FTSA eps = 1 plan
   with a first row of [2:0] (which [Schedule.create] accepts; it only
   counts rows). *)
let test_validate_source_out_of_range () =
  let inst =
    Ftsched_exp.Workload.instance Ftsched_exp.Workload.paper ~master_seed:2008
      ~granularity:1.0 ~index:0
  in
  let eps = 1 in
  let s = Ftsched_core.Mc_ftsa.schedule ~seed:2008 inst ~eps in
  let plan = Schedule.comm s in
  let rows =
    Array.init (Dag.n_edges (Instance.dag inst)) (fun e ->
        if e = 0 then [ { Comm_plan.src_replica = 2; dst_replica = 0 } ]
        else Comm_plan.to_list plan ~eps e)
  in
  let bad =
    Schedule.create ~instance:inst ~eps
      ~replicas:(Array.init (Instance.n_tasks inst) (Schedule.replicas s))
      ~comm:(Comm_plan.of_lists rows)
  in
  match Validate.check bad with
  | Ok () -> Alcotest.fail "an out-of-range source replica validated"
  | Error errs ->
      let src, _ = Dag.edge_endpoints (Instance.dag inst) 0 in
      check_bool "replica-range error names edge 0" true
        (List.mem
           {
             Validate.check = "replica-range";
             detail =
               Printf.sprintf
                 "edge 0: source replica 2 of task %d does not exist (ε = 1)"
                 src;
           }
           errs);
      check_bool "one-to-one error" true
        (List.exists (fun e -> e.Validate.check = "one-to-one") errs)

(* The flat [Validate.robust_selection] against the frozen list-based
   one: the same errors, in the same order, on FTSA, MC-FTSA greedy,
   bottleneck and redundant-2 plans as scheduled, and on copies whose
   rows have two destinations swapped, a pair repeated, a replica out of
   range, or the forced internal pair dropped.  The copies must raise
   every error the check reports. *)
let test_robust_selection_matches_ref () =
  let module Validate_ref = Ftsched_oracle.Validate_ref in
  let module Mc = Ftsched_core.Mc_ftsa in
  let seen = Hashtbl.create 8 in
  let race what s =
    let got = Validate.robust_selection s in
    List.iter
      (fun e ->
        let kind =
          if e.Validate.check <> "forced-internal" then e.Validate.check
          else if contains e.Validate.detail "must send only" then
            "forced-internal (only)"
          else "forced-internal (feed)"
        in
        Hashtbl.replace seen kind ())
      got;
    if got <> Validate_ref.robust_selection s then
      Alcotest.failf "%s: flat and list checks disagree" what
  in
  for seed = 0 to 59 do
    let m = 2 + (seed mod 5) in
    let inst = random_instance ~seed ~n_tasks:(3 + (seed mod 23)) ~m () in
    let g = Instance.dag inst in
    let eps = seed mod m in
    let k = eps + 1 in
    let rng = Rng.create ~seed in
    let mutated s =
      let plan = Schedule.comm s in
      let row e =
        let src, dst = Dag.edge_endpoints g e in
        let pairs = Comm_plan.to_list plan ~eps e in
        let colocated (p : Comm_plan.pair) =
          p.src_replica < k && p.dst_replica < k
          && Schedule.proc_of s src p.src_replica
             = Schedule.proc_of s dst p.dst_replica
        in
        match (Rng.int rng 6, pairs) with
        | 0, a :: b :: rest ->
            { a with dst_replica = b.dst_replica }
            :: { b with dst_replica = a.dst_replica } :: rest
        | 1, a :: rest -> a :: rest @ [ a ]
        | 2, a :: rest -> { a with dst_replica = k } :: rest
        | 3, _ -> List.filter (fun p -> not (colocated p)) pairs
        | _ -> pairs
      in
      Schedule.create ~instance:inst ~eps
        ~replicas:(Array.init (Instance.n_tasks inst) (Schedule.replicas s))
        ~comm:(Comm_plan.of_lists (Array.init (Dag.n_edges g) row))
    in
    List.iter
      (fun (name, s) ->
        let what = Printf.sprintf "%s seed %d" name seed in
        race what s;
        if not (Comm_plan.is_all_to_all (Schedule.comm s)) then
          race (what ^ " mutated") (mutated s))
      [
        ("ftsa", Ftsched_core.Ftsa.schedule ~seed inst ~eps);
        ("mc-ftsa", Mc.schedule ~seed inst ~eps);
        ("mc-ftsa bottleneck", Mc.schedule ~seed ~strategy:Mc.Bottleneck inst ~eps);
        ("mc-ftsa redundant 2", Mc.schedule ~seed ~strategy:(Mc.Redundant 2) inst ~eps);
      ]
  done;
  List.iter
    (fun kind -> check_bool (kind ^ " exercised") true (Hashtbl.mem seen kind))
    [ "one-to-one"; "forced-internal (feed)"; "forced-internal (only)" ]

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

module Metrics = Ftsched_schedule.Metrics

let test_metrics_cp_bound () =
  (* fastest execution along the chain: 2 + 3 + 1 = 6 *)
  check_float "cp bound" 6. (Metrics.critical_path_lower_bound (tiny_instance ()))

let test_metrics_hand_values () =
  let s = hand_schedule () in
  check_float "slr 8/6" (8. /. 6.) (Metrics.slr s);
  check_float "gslr 25/6" (25. /. 6.) (Metrics.guaranteed_slr s);
  check_float "sequential 6" 6. (Metrics.sequential_time (tiny_instance ()));
  check_float "speedup 6/8" 0.75 (Metrics.speedup s);
  (* busy: P0 = 10, P1 = 8; horizon M* = 8 *)
  check_float "utilization" ((10. +. 8.) /. (2. *. 8.)) (Metrics.avg_utilization s);
  check_float "imbalance 10/9" (10. /. 9.) (Metrics.load_imbalance s);
  check_float "inflation 18/6" 3. (Metrics.work_inflation s)

let prop_metrics_sane =
  QCheck.Test.make ~name:"metrics stay in sane ranges" ~count:40
    QCheck.(pair (int_range 0 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let s = Ftsched_core.Ftsa.schedule ~seed inst ~eps in
      Metrics.slr s >= 1. -. 1e-9
      && Metrics.guaranteed_slr s >= Metrics.slr s -. 1e-9
      && Metrics.load_imbalance s >= 1. -. 1e-9
      && Metrics.work_inflation s >= float_of_int (eps + 1) -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)

module Serialize = Ftsched_schedule.Serialize
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa

let same_schedule a b =
  let ia = Schedule.instance a and ib = Schedule.instance b in
  let va = Instance.n_tasks ia in
  Instance.n_tasks ia = Instance.n_tasks ib
  && Instance.n_procs ia = Instance.n_procs ib
  && Schedule.eps a = Schedule.eps b
  && List.for_all
       (fun task ->
         Array.for_all2
           (fun (x : Schedule.replica) (y : Schedule.replica) -> x = y)
           (Schedule.replicas a task) (Schedule.replicas b task))
       (List.init va (fun i -> i))
  && Schedule.comm a = Schedule.comm b

let test_serialize_roundtrip_hand () =
  let s = hand_schedule () in
  let s' = Serialize.schedule_of_string (Serialize.schedule_to_string s) in
  check_bool "identical" true (same_schedule s s');
  assert_valid "parsed schedule" s'

let test_serialize_instance_roundtrip () =
  let inst = tiny_instance () in
  let inst' = Serialize.instance_of_string (Serialize.instance_to_string inst) in
  check_int "tasks" (Instance.n_tasks inst) (Instance.n_tasks inst');
  check_float "exact float" (Instance.exec inst 2 1) (Instance.exec inst' 2 1);
  check_float "delay" 0.5
    (Ftsched_platform.Platform.delay (Instance.platform inst') 0 1);
  check_float "volume"
    (Ftsched_dag.Dag.edge_volume (Instance.dag inst) 1)
    (Ftsched_dag.Dag.edge_volume (Instance.dag inst') 1)

let prop_serialize_roundtrip_random =
  QCheck.Test.make ~name:"serialization round-trips every scheduler output"
    ~count:25
    QCheck.(pair (int_range 0 2) (int_range 0 5000))
    (fun (eps, seed) ->
      let inst = random_instance ~seed ~n_tasks:20 ~m:5 () in
      List.for_all
        (fun s ->
          same_schedule s
            (Serialize.schedule_of_string (Serialize.schedule_to_string s)))
        [ Ftsa.schedule ~seed inst ~eps; Mc_ftsa.schedule ~seed inst ~eps ])

let test_serialize_redundant_plan_roundtrip () =
  (* plans with more than eps+1 pairs per edge must survive the format *)
  let inst = tiny_instance () in
  let s =
    Mc_ftsa.schedule ~strategy:(Mc_ftsa.Redundant 2) inst ~eps:1
  in
  let s' = Serialize.schedule_of_string (Serialize.schedule_to_string s) in
  check_bool "redundant roundtrip" true (same_schedule s s');
  assert_valid "parsed redundant schedule" s'

let test_serialize_file_roundtrip () =
  let s = hand_schedule () in
  let path = Filename.temp_file "ftsched" ".sched" in
  Serialize.save_schedule s ~path;
  let s' = Serialize.load_schedule ~path in
  Sys.remove path;
  check_bool "file roundtrip" true (same_schedule s s')

(* ---- regression: label whitespace handling --------------------------
   The format stores a label as the tail of a space-separated line, so
   only labels invariant under whitespace normalization can come back
   identical.  Offending labels used to round-trip silently changed;
   they are now rejected at serialization time. *)

let instance_with_label label =
  let b = Dag.Builder.create () in
  ignore (Dag.Builder.add_task ~label b);
  Instance.create
    ~dag:(Dag.Builder.build b)
    ~platform:(Platform.homogeneous ~m:2 ~unit_delay:0.5)
    ~exec:[| [| 1.; 2. |] |]

let test_serialize_label_rejection () =
  let rejected label =
    try
      ignore (Serialize.instance_to_string (instance_with_label label));
      false
    with Invalid_argument _ -> true
  in
  check_bool "trailing space" true (rejected "task ");
  check_bool "leading space" true (rejected " task");
  check_bool "double space" true (rejected "a  b");
  check_bool "tab" true (rejected "a\tb");
  check_bool "newline" true (rejected "a\nb");
  check_bool "single internal space ok" false (rejected "matrix multiply");
  let inst' =
    Serialize.instance_of_string
      (Serialize.instance_to_string (instance_with_label "matrix multiply"))
  in
  Alcotest.(check string)
    "label preserved" "matrix multiply"
    (Dag.label (Instance.dag inst') 0)

let prop_label_roundtrip_or_reject =
  QCheck.Test.make
    ~name:"adversarial labels either round-trip exactly or are rejected"
    ~count:300
    QCheck.(
      string_gen_of_size
        Gen.(int_range 0 12)
        (Gen.oneofl [ ' '; '\t'; '\n'; '\r'; 'a'; 'b'; '_'; '-'; '.' ]))
    (fun label ->
      match Serialize.instance_to_string (instance_with_label label) with
      | exception Invalid_argument _ -> true
      | str -> Dag.label (Instance.dag (Serialize.instance_of_string str)) 0
               = label)

(* ---- regression: out-of-range fields rejected at their own line ---- *)

let map_first_line pred f s =
  let seen = ref false in
  String.split_on_char '\n' s
  |> List.map (fun l ->
         if (not !seen) && pred l then begin
           seen := true;
           f l
         end
         else l)
  |> String.concat "\n"

let starts_with prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

let rejects_with_line_error str =
  try
    ignore (Serialize.schedule_of_string str);
    false
  with Failure msg -> contains msg "line" && contains msg "out of range"

let test_serialize_rejects_out_of_range () =
  let base = Serialize.schedule_to_string (hand_schedule ()) in
  (* replica on a processor the platform does not have *)
  let bad_proc =
    map_first_line (starts_with "replica ")
      (fun l ->
        match String.split_on_char ' ' l with
        | tag :: task :: index :: _proc :: rest ->
            String.concat " " (tag :: task :: index :: "9" :: rest)
        | _ -> l)
      base
  in
  check_bool "replica proc out of range" true (rejects_with_line_error bad_proc);
  (* eps >= m in the schedule header *)
  let bad_eps =
    map_first_line (starts_with "schedule ") (fun _ -> "schedule 5") base
  in
  check_bool "eps out of range" true (rejects_with_line_error bad_eps);
  (* MC pair referencing a replica index beyond eps *)
  let sel =
    Serialize.schedule_to_string (Mc_ftsa.schedule ~seed:0 (tiny_instance ()) ~eps:1)
  in
  let bad_pair =
    map_first_line (starts_with "pairs ")
      (fun l ->
        match String.split_on_char ' ' l with
        | tag :: idx :: _first :: rest ->
            String.concat " " (tag :: idx :: "7:0" :: rest)
        | _ -> l)
      sel
  in
  check_bool "pair replica out of range" true (rejects_with_line_error bad_pair)

let test_serialize_rejects_garbage () =
  check_bool "bad magic" true
    (try
       ignore (Serialize.schedule_of_string "not a schedule\n");
       false
     with Failure _ -> true);
  (* the hardened parser rejects the declared counts up front (typed
     [Invalid_argument]) instead of running out of lines mid-parse *)
  check_bool "truncated" true
    (try
       ignore
         (Serialize.schedule_of_string "ftsched v1\ninstance 2 2 0\nlabel a\n");
       false
     with Failure _ | Invalid_argument _ -> true)

(* ---- regression: parse errors name the line that was read ----------
   The cursor used to report the line after the bad one. *)

let parse_failure doc =
  match Serialize.schedule_of_string doc with
  | exception Failure msg -> msg
  | exception e -> Printexc.to_string e
  | _ -> "parsed"

let replace_line n f doc =
  String.split_on_char '\n' doc
  |> List.mapi (fun i l -> if i = n - 1 then f l else l)
  |> String.concat "\n"

let test_serialize_error_lines () =
  Alcotest.(check string)
    "bad magic on line 1" "line 1: bad magic (expected \"ftsched v1\")"
    (parse_failure "ftsched v2\n");
  (* magic, header, 3 labels, 2 edges, 2 delay rows: the first exec row
     of the hand schedule is line 10 *)
  let doc = Serialize.schedule_to_string (hand_schedule ()) in
  check_bool "line 10 is the first exec row" true
    (starts_with "exec " (List.nth (String.split_on_char '\n' doc) 9));
  let bad_exec =
    replace_line 10
      (fun l ->
        match String.split_on_char ' ' l with
        | tag :: _ :: rest -> String.concat " " (tag :: "0x1.zp+1" :: rest)
        | _ -> l)
      doc
  in
  Alcotest.(check string)
    "bad exec float on line 10" "line 10: bad float \"0x1.zp+1\""
    (parse_failure bad_exec);
  (* blank lines count: the same row two lines further down *)
  Alcotest.(check string)
    "blank lines are counted" "line 12: bad float \"0x1.zp+1\""
    (parse_failure (replace_line 2 (fun l -> "\n" ^ l ^ "\n") bad_exec))

(* A repeated edge line is rejected by the DAG build, naming the edge,
   by the codec and by the frozen reference parser alike. *)
let test_serialize_rejects_duplicate_edge () =
  (* magic, header, 3 labels: lines 6 and 7 are edges 0 (0 -> 1) and 1 *)
  let doc = Serialize.schedule_to_string (hand_schedule ()) in
  let lines = String.split_on_char '\n' doc in
  let dup = replace_line 7 (fun _ -> List.nth lines 5) doc in
  Alcotest.(check string) "duplicate edge"
    "Invalid_argument(\"Dag.Builder.build: duplicate edge 1 (0 -> 1)\")"
    (parse_failure dup);
  Alcotest.(check string) "reference parser"
    (parse_failure dup)
    (match Ftsched_oracle.Serialize_ref.schedule_of_string dup with
    | exception e -> Printexc.to_string e
    | _ -> "parsed")

(* A second [pairs] line for one edge used to replace the first, leaving
   the edge it displaced with an empty row.  Renaming the second line to
   the first line's edge id fails at that line, in the codec and in the
   frozen reference parser alike. *)
let test_serialize_rejects_repeated_pairs_row () =
  let doc =
    Serialize.schedule_to_string
      (Mc_ftsa.schedule ~seed:0 (tiny_instance ()) ~eps:1)
  in
  let lines = Array.of_list (String.split_on_char '\n' doc) in
  let first = ref (-1) in
  Array.iteri
    (fun i l -> if !first < 0 && starts_with "pairs " l then first := i)
    lines;
  let n = !first + 2 in
  let second = lines.(n - 1) in
  check_bool "second pairs line names edge 1" true (starts_with "pairs 1 " second);
  let dup =
    replace_line n
      (fun l -> "pairs 0" ^ String.sub l 7 (String.length l - 7))
      doc
  in
  Alcotest.(check string) "repeated row"
    (Printf.sprintf "line %d: pairs edge 0 repeated" n)
    (parse_failure dup);
  Alcotest.(check string) "reference parser" (parse_failure dup)
    (match Ftsched_oracle.Serialize_ref.schedule_of_string dup with
    | exception Failure msg -> msg
    | exception e -> Printexc.to_string e
    | _ -> "parsed")

(* ---- regression: replica times must be finite -----------------------
   NaN compares false against everything, so [finish < start] let a NaN
   time through [Schedule.create]. *)

let test_nonfinite_replica_times () =
  let not_finite = Invalid_argument "Schedule.create: replica time not finite" in
  List.iter
    (fun (what, x) ->
      let reps = hand_replicas () in
      reps.(1).(0) <- { (reps.(1).(0)) with pess_start = x };
      Alcotest.check_raises what not_finite (fun () ->
          ignore
            (Schedule.create ~instance:(tiny_instance ()) ~eps:1 ~replicas:reps
               ~comm:Comm_plan.all_to_all)))
    [ ("nan", Float.nan); ("infinity", Float.infinity);
      ("-infinity", Float.neg_infinity) ];
  (* the codec builds through [Schedule.create], so a document carrying
     such times is rejected too *)
  let doc = Serialize.schedule_to_string (hand_schedule ()) in
  List.iter
    (fun word ->
      let bad =
        map_first_line (starts_with "replica ")
          (fun l ->
            match String.split_on_char ' ' l with
            | tag :: task :: index :: proc :: st :: _ ->
                String.concat " " [ tag; task; index; proc; st; word; word; word ]
            | _ -> l)
          doc
      in
      Alcotest.check_raises word not_finite (fun () ->
          ignore (Serialize.schedule_of_string bad)))
    [ "nan"; "infinity"; "-nan" ]

(* ---- the codec against the frozen [Printf]-and-[split] oracle ------- *)

module Serialize_ref = Ftsched_oracle.Serialize_ref

let float_cases =
  [ 0.; -0.; Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity;
    4.9e-324; -4.9e-324; Float.max_float; -.Float.max_float;
    Float.min_float (* exponent -1022 *); Float.ldexp 1. 1023;
    Float.ldexp 0x1.fffffffffffffp0 1023; Float.pred Float.min_float;
    Int64.float_of_bits 0x7ff0_0000_0000_0001L;
    Int64.float_of_bits 0xfff8_0000_0000_0000L;
    1.; 0.5; 3.; 0.1; 1e300; -1e-300; 123456.789 ]

let test_hex_float_cases () =
  List.iter
    (fun x ->
      Alcotest.(check string)
        (Printf.sprintf "%%h of %Lx" (Int64.bits_of_float x))
        (Printf.sprintf "%h" x)
        (Serialize.Private.hex_float x))
    float_cases

let prop_hex_float_bits =
  QCheck.Test.make ~name:"the float writer equals %h on random bit patterns"
    ~count:5000 QCheck.int64 (fun bits ->
      let x = Int64.float_of_bits bits in
      Serialize.Private.hex_float x = Printf.sprintf "%h" x)

let plans_of inst ~seed ~eps =
  [ Ftsa.schedule ~seed inst ~eps; Mc_ftsa.schedule ~seed inst ~eps ]

let prop_writers_agree =
  QCheck.Test.make ~name:"the writer emits the oracle's bytes" ~count:40
    QCheck.(triple (int_range 4 30) (int_range 2 6) (int_range 0 10_000))
    (fun (n_tasks, m, seed) ->
      let inst = random_instance ~seed ~n_tasks ~m () in
      let eps = seed mod m in
      Serialize.instance_to_string inst = Serialize_ref.instance_to_string inst
      && List.for_all
           (fun s ->
             Serialize.schedule_to_string s = Serialize_ref.schedule_to_string s)
           (plans_of inst ~seed ~eps))

(* The same outcome: the same re-serialized bytes, or the same exception
   constructor and message. *)
let outcome parse write doc =
  match write (parse doc) with
  | bytes -> Ok bytes
  | exception e -> Error (Printexc.to_string e)

let same_outcome ~instance doc =
  if instance then
    outcome Serialize.instance_of_string Serialize.instance_to_string doc
    = outcome Serialize_ref.instance_of_string
        Serialize_ref.instance_to_string doc
  else
    outcome Serialize.schedule_of_string Serialize.schedule_to_string doc
    = outcome Serialize_ref.schedule_of_string
        Serialize_ref.schedule_to_string doc

let prop_parsers_agree =
  QCheck.Test.make
    ~name:"the parser and the oracle agree on pristine and mutated documents"
    ~count:40
    QCheck.(pair (int_range 4 12) (int_range 0 10_000))
    (fun (n_tasks, seed) ->
      let inst = random_instance ~seed ~n_tasks ~m:3 () in
      let docs =
        (true, Serialize.instance_to_string inst)
        :: List.map
             (fun s -> (false, Serialize.schedule_to_string s))
             (plans_of inst ~seed ~eps:(seed mod 3))
      in
      let rng = Rng.create ~seed in
      List.for_all
        (fun (instance, doc) ->
          same_outcome ~instance doc
          && List.for_all
               (fun _ ->
                 same_outcome ~instance (Ftsched_fuzz.Fuzz.mutate_doc rng doc))
               (List.init 30 Fun.id))
        docs)

(* Hand-made lines: several bad words on one line, and every word form
   the fast paths hand back to [int_of_string] / [float_of_string]. *)
let test_parsers_agree_by_hand () =
  let doc =
    Serialize.schedule_to_string
      (Mc_ftsa.schedule ~seed:0 (tiny_instance ()) ~eps:1)
  in
  let lines = Array.of_list (String.split_on_char '\n' doc) in
  let edits =
    [ ( "edge ",
        [ "edge x y z"; "edge 0 y 0x1p+0"; "edge 0 1 1e1";
          "edge 0x0 0o1 0X1.4P+3"; "edge +0 1_0 1_000.5"; "edge 0 1 0x1.p+3";
          "edge 0 1 0x1.00000000000001p+3"; "edge 0 1 0x2p+0";
          "edge 0 1 0x1p+99999"; "edge 0 1 0x0.8p-1021"; "edge 0 1 0x1p3";
          "edge 0 1 -0x0p+0"; "edge 0 1 nan"; "edge 0 1 infinity";
          "edge 0 1 0x1p+"; "edge 0 99999999999999999999 0x1p+0";
          "edge - 1 0x1p+0"; "\t edge 0 1 0x1p+0\r"; "edge\t0 1 0x1p+0";
          "edge  0   1 0x1p+0 "; "edge 0 1 0x1p+0 extra" ] );
      ( "exec ",
        [ "exec 0x1p+1 a b"; "exec a b"; "exec 0x1p+1";
          "exec 0x1p+1 0x1p+0\012"; "\012exec 0x1p+1 0x1p+0"; "exec 1.5 2" ] );
      ( "replica ",
        [ "replica x y 0 a b c d"; "replica 0 0 x a b c d";
          "replica 0 0 0 a b c d"; "replica 0 0 0 a b 0x0p+0 0x1p+1";
          "replica 9 0 0 0x0p+0 0x1p+1 0x0p+0 0x1p+1";
          "replica 0 0 7 0x0p+0 0x1p+1 0x0p+0 0x1p+1" ] );
      ( "pairs ",
        [ "pairs 0 x:y 1:1"; "pairs 0 0:0 x:y"; "pairs x 0:0";
          "pairs 0 0:0 1:9"; "pairs 0 0:0:1 1:1"; "pairs 0 1: :1"; "pairs 0";
          "pairs 7 0:0 1:1"; "pairz 0 0:0" ] ) ]
  in
  List.iter
    (fun (prefix, replacements) ->
      let i =
        let rec go i = if starts_with prefix lines.(i) then i else go (i + 1) in
        go 0
      in
      List.iter
        (fun line ->
          let l = Array.copy lines in
          l.(i) <- line;
          check_bool (Printf.sprintf "%S agrees" line) true
            (same_outcome ~instance:false (String.concat "\n" (Array.to_list l))))
        replacements)
    edits;
  List.iter
    (fun doc ->
      check_bool (Printf.sprintf "%S agrees" doc) true
        (same_outcome ~instance:true doc))
    [ ""; "\n\n"; "ftsched v2\n"; "ftsched v1"; "ftsched v1\ninstance 1 1";
      "ftsched v1\ninstance 1 1 0";
      "ftsched v1\ninstance 1 1 0\nlabel a\ndelay 0x0p+0\nexec 0x1p+0";
      "  ftsched   v1 \r\n\n instance 1 1 0\nlabel  a  b \ndelay 0\nexec 1\n" ]

(* ------------------------------------------------------------------ *)
(* Gantt                                                               *)

let test_gantt_render () =
  let s = hand_schedule () in
  let out = Gantt.render ~width:40 s in
  check_bool "has P0 row" true (contains out "P0");
  check_bool "has P1 row" true (contains out "P1");
  check_bool "mentions horizon" true (contains out "horizon");
  let listing = Gantt.render_listing s in
  check_bool "listing has task 2" true (contains listing "task 2")

let test_gantt_svg () =
  let s = hand_schedule () in
  let svg = Gantt.render_svg s in
  check_bool "is svg" true (contains svg "<svg");
  check_bool "closes svg" true (contains svg "</svg>");
  check_bool "has rects" true (contains svg "<rect");
  check_bool "labels procs" true (contains svg ">P1</text>");
  (* six replicas -> six rect blocks *)
  let rects =
    List.length (String.split_on_char '\n' svg)
    - List.length
        (List.filter
           (fun l -> not (contains l "<rect"))
           (String.split_on_char '\n' svg))
  in
  check_int "one rect per replica" 6 rects

(* Minor words per edge of the DAG build path on the fixed 1,000-task
   layered instance at m = 20 (20,090 edges): [Serialize.instance_of_string]
   15.28 and a [Dag.Builder] fed from arrays (add + build) 6.38 when
   pinned.  The count is deterministic: equal over three runs in one
   domain and in each of two worker domains.  The bounds leave 1.2 words
   per edge of headroom, less than one boxed float (2 words) or pair
   (3 words) per edge, so a per-edge allocation on the build path fails
   the guard.  A budget change goes through CHANGES.md with its reason. *)
let test_build_allocation_guard () =
  let rng = Rng.create ~seed:2008 in
  let dag = Generators.layered rng ~n_tasks:1000 () in
  let platform = Platform.random rng ~m:20 ~delay_lo:0.5 ~delay_hi:1.0 () in
  let inst = Instance.random_exec rng ~dag ~platform () in
  let v = Dag.n_tasks dag and e = Dag.n_edges dag in
  check_int "edges" 20_090 e;
  let doc = Serialize.instance_to_string inst in
  let src = Array.make e 0 and dst = Array.make e 0 and vol = Array.make e 0. in
  Dag.iter_edges dag (fun i ~src:s ~dst:d ~volume ->
      src.(i) <- s;
      dst.(i) <- d;
      vol.(i) <- volume);
  let build () =
    let b = Dag.Builder.create () in
    for _ = 1 to v do
      ignore (Dag.Builder.add_task b)
    done;
    for i = 0 to e - 1 do
      Dag.Builder.add_edge b ~src:src.(i) ~dst:dst.(i) ~volume:vol.(i)
    done;
    Dag.Builder.build b
  in
  let per_edge run () =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (run ()));
    (Gc.minor_words () -. w0) /. float_of_int e
  in
  let check (name, bound, run) =
    let words = per_edge run () in
    let again = List.init 2 (fun _ -> per_edge run ()) in
    let parallel =
      Ftsched_par.Par.parallel_map ~jobs:2 (fun () -> per_edge run ()) [ (); () ]
    in
    List.iter
      (fun w -> Alcotest.(check (float 0.)) (name ^ " words per edge repeat") words w)
      (again @ parallel);
    if words > bound then
      Alcotest.failf "%s: %.2f minor words per edge, budget %.1f" name words bound
  in
  check ("instance_of_string", 16.5, fun () -> ignore (Serialize.instance_of_string doc));
  check ("builder", 7.6, fun () -> ignore (build ()))

(* Minor words per cost of [Instance.random_exec] on the same graph and
   platform (20,000 costs): 1.05 when pinned, the 21-word rows it keeps
   (the weights, the cost and average arrays of 1,000 entries are
   allocated in the major heap); 10.60 while every draw and every cost
   was boxed and [Instance.create] copied the rows.  The count is
   deterministic: equal over three runs in one domain and in each of two
   worker domains.  The bound leaves 0.45 words per cost of headroom,
   less than one boxed float (2 words) per cost.  A budget change goes
   through CHANGES.md with its reason. *)
let test_random_exec_allocation_guard () =
  let rng = Rng.create ~seed:2008 in
  let dag = Generators.layered rng ~n_tasks:1000 () in
  let platform = Platform.random rng ~m:20 ~delay_lo:0.5 ~delay_hi:1.0 () in
  let costs = float_of_int (Dag.n_tasks dag * Platform.n_procs platform) in
  let per_cost () =
    let rng = Rng.copy rng in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Instance.random_exec rng ~dag ~platform ()));
    (Gc.minor_words () -. w0) /. costs
  in
  let words = per_cost () in
  let again = List.init 2 (fun _ -> per_cost ()) in
  let parallel = Ftsched_par.Par.parallel_map ~jobs:2 per_cost [ (); () ] in
  List.iter
    (fun w -> Alcotest.(check (float 0.)) "random_exec words per cost repeat" words w)
    (again @ parallel);
  if words > 1.5 then
    Alcotest.failf "random_exec: %.2f minor words per cost, budget 1.5" words

let () =
  Alcotest.run "schedule"
    [
      ( "comm-plan",
        [
          Alcotest.test_case "all-to-all pairs" `Quick test_all_to_all_pairs;
          Alcotest.test_case "senders_to" `Quick test_senders_to;
          Alcotest.test_case "builder rows" `Quick test_builder_rows;
          Alcotest.test_case "receivers walk" `Quick test_receivers;
          Alcotest.test_case "sender counts walk" `Quick test_sender_counts;
          Alcotest.test_case "is_one_to_one" `Quick test_is_one_to_one;
          Alcotest.test_case "is_one_to_one edge cases" `Quick
            test_is_one_to_one_edge_cases;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "mapping matrix" `Quick test_mapping_matrix;
          Alcotest.test_case "timeline sorted" `Quick test_proc_timeline_sorted;
          Alcotest.test_case "timeline ties" `Quick test_timeline_ties;
          quick prop_planned_order_equals_stable_sort;
          Alcotest.test_case "bounds M*/M" `Quick test_bounds;
          Alcotest.test_case "busy time" `Quick test_busy_time;
          Alcotest.test_case "messages: intra shortcut" `Quick
            test_message_count_all_to_all;
          Alcotest.test_case "messages: spread procs" `Quick
            test_message_count_spread;
        ] );
      ( "validate",
        [
          Alcotest.test_case "hand schedule ok" `Quick test_validate_ok;
          Alcotest.test_case "duplicate proc" `Quick test_validate_duplicate_proc;
          Alcotest.test_case "overlap" `Quick test_validate_overlap;
          Alcotest.test_case "early start" `Quick test_validate_early_start;
          Alcotest.test_case "wrong duration" `Quick test_validate_wrong_duration;
          Alcotest.test_case "selection not bijective" `Quick
            test_validate_selection_not_bijective;
          Alcotest.test_case "forced internal rule" `Quick
            test_validate_forced_internal;
          Alcotest.test_case "unsorted timeline" `Quick
            test_validate_unsorted_timeline;
          Alcotest.test_case "data feasibility equals the list oracle" `Quick
            test_data_feasible_matches_ref;
          Alcotest.test_case "source replica out of range" `Quick
            test_validate_source_out_of_range;
          Alcotest.test_case "robust selection equals the list oracle" `Quick
            test_robust_selection_matches_ref;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "cp bound" `Quick test_metrics_cp_bound;
          Alcotest.test_case "hand values" `Quick test_metrics_hand_values;
          quick prop_metrics_sane;
        ] );
      ( "serialize",
        [
          Alcotest.test_case "hand roundtrip" `Quick test_serialize_roundtrip_hand;
          Alcotest.test_case "instance roundtrip" `Quick
            test_serialize_instance_roundtrip;
          Alcotest.test_case "redundant plan roundtrip" `Quick
            test_serialize_redundant_plan_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_serialize_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
          Alcotest.test_case "label rejection" `Quick
            test_serialize_label_rejection;
          Alcotest.test_case "out-of-range fields" `Quick
            test_serialize_rejects_out_of_range;
          quick prop_serialize_roundtrip_random;
          quick prop_label_roundtrip_or_reject;
          Alcotest.test_case "error lines" `Quick test_serialize_error_lines;
          Alcotest.test_case "rejects a duplicate edge" `Quick
            test_serialize_rejects_duplicate_edge;
          Alcotest.test_case "rejects a repeated pairs row" `Quick
            test_serialize_rejects_repeated_pairs_row;
          Alcotest.test_case "build allocation guard" `Quick
            test_build_allocation_guard;
          Alcotest.test_case "random_exec allocation guard" `Quick
            test_random_exec_allocation_guard;
          Alcotest.test_case "non-finite replica times" `Quick
            test_nonfinite_replica_times;
        ] );
      ( "codec",
        [
          Alcotest.test_case "float writer edge cases" `Quick test_hex_float_cases;
          quick prop_hex_float_bits;
          quick prop_writers_agree;
          quick prop_parsers_agree;
          Alcotest.test_case "hand-made lines" `Quick test_parsers_agree_by_hand;
        ] );
      ( "gantt",
        [
          Alcotest.test_case "render" `Quick test_gantt_render;
          Alcotest.test_case "svg" `Quick test_gantt_svg;
        ] );
    ]

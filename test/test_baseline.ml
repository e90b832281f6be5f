(* Tests for Ftsched_baseline: FTBAR and HEFT. *)

module Ftbar = Ftsched_baseline.Ftbar
module Heft = Ftsched_baseline.Heft
module Ftsa = Ftsched_core.Ftsa
module Schedule = Ftsched_schedule.Schedule
module Validate = Ftsched_schedule.Validate
open Helpers

let prop_ftbar_valid =
  QCheck.Test.make ~name:"FTBAR schedules are always valid" ~count:40
    QCheck.(pair (int_range 0 3) (int_range 0 5000))
    (fun (npf, seed) ->
      let inst = random_instance ~seed ~m:6 () in
      let s = Ftbar.schedule ~seed inst ~npf in
      Validate.check s = Ok ())

let prop_ftbar_survives =
  QCheck.Test.make ~name:"FTBAR survives every npf-subset" ~count:20
    QCheck.(pair (int_range 1 2) (int_range 0 5000))
    (fun (npf, seed) ->
      let inst = random_instance ~seed ~n_tasks:25 ~m:5 () in
      let s = Ftbar.schedule ~seed inst ~npf in
      survives_eps_subsets s)

let test_ftbar_npf0 () =
  let inst = random_instance ~seed:1 () in
  let s = Ftbar.schedule inst ~npf:0 in
  check_int "single replica" 1 (Schedule.n_replicas s);
  assert_valid "fault-free ftbar" s

let test_ftbar_invalid_npf () =
  let inst = random_instance ~seed:2 ~m:4 () in
  Alcotest.check_raises "npf too large"
    (Invalid_argument "Ftbar.schedule: need 0 <= npf < number of processors")
    (fun () -> ignore (Ftbar.schedule inst ~npf:4))

let test_ftbar_deterministic () =
  let inst = random_instance ~seed:3 () in
  let a = Ftbar.schedule ~seed:5 inst ~npf:2 in
  let b = Ftbar.schedule ~seed:5 inst ~npf:2 in
  check_float "same latency"
    (Schedule.latency_lower_bound a)
    (Schedule.latency_lower_bound b)

let test_ftbar_replicates_everywhere () =
  let inst = random_instance ~seed:4 ~m:3 () in
  let s = Ftbar.schedule inst ~npf:2 in
  for t = 0 to Instance.n_tasks inst - 1 do
    Alcotest.(check (list int)) "all procs" [ 0; 1; 2 ]
      (List.sort compare (Array.to_list (Schedule.assigned_procs s t)))
  done

(* Aggregate quality: FTSA should beat FTBAR on average (the paper's
   headline result).  Checked over a small batch to keep CI fast. *)
let test_ftsa_beats_ftbar_on_average () =
  let total_ftsa = ref 0. and total_ftbar = ref 0. in
  for seed = 0 to 9 do
    let inst = random_instance ~seed ~n_tasks:60 ~m:10 () in
    let s = Ftsa.schedule ~seed inst ~eps:2 in
    let f = Ftbar.schedule ~seed inst ~npf:2 in
    total_ftsa := !total_ftsa +. Schedule.latency_lower_bound s;
    total_ftbar := !total_ftbar +. Schedule.latency_lower_bound f
  done;
  check_bool "mean FTSA M* < mean FTBAR M*" true (!total_ftsa < !total_ftbar)

(* ------------------------------------------------------------------ *)
(* HEFT                                                                *)

let prop_heft_valid =
  QCheck.Test.make ~name:"HEFT schedules are always valid" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let inst = random_instance ~seed ~m:6 () in
      let s = Heft.schedule inst in
      Validate.check s = Ok ())

let test_heft_single_replica () =
  let inst = random_instance ~seed:6 () in
  let s = Heft.schedule inst in
  check_int "eps 0" 0 (Schedule.eps s)

let test_heft_close_to_fault_free_ftsa () =
  (* both are upward-rank earliest-finish heuristics; on average they
     should land in the same ballpark (within 2x of each other). *)
  let total_heft = ref 0. and total_ftsa = ref 0. in
  for seed = 0 to 9 do
    let inst = random_instance ~seed ~n_tasks:60 ~m:10 () in
    total_heft :=
      !total_heft +. Schedule.latency_lower_bound (Heft.schedule inst);
    total_ftsa :=
      !total_ftsa +. Schedule.latency_lower_bound (Ftsa.fault_free inst)
  done;
  let ratio = !total_heft /. !total_ftsa in
  check_bool "ratio in [0.5, 2]" true (ratio > 0.5 && ratio < 2.)

let test_heft_insertion_gap () =
  (* A graph where insertion matters: two chains A->B and a short task C
     that fits in the idle gap on the same processor.  HEFT must not
     push C after B. *)
  let b = Dag.Builder.create () in
  let a = Dag.Builder.add_task b in
  let bb = Dag.Builder.add_task b in
  let _c = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:a ~dst:bb ~volume:100.;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:1 ~unit_delay:1. in
  (* one processor: a [0,10]; b waits for nothing but order; c dur 2 *)
  let exec = [| [| 10. |]; [| 10. |]; [| 2. |] |] in
  let inst = Instance.create ~dag ~platform ~exec in
  let s = Heft.schedule inst in
  assert_valid "heft single proc" s;
  check_bool "c fits" true (Schedule.latency_lower_bound s <= 22.)

(* ------------------------------------------------------------------ *)
(* CPOP                                                                *)

module Cpop = Ftsched_baseline.Cpop

let prop_cpop_valid =
  QCheck.Test.make ~name:"CPOP schedules are always valid" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let inst = random_instance ~seed ~m:6 () in
      Validate.check (Cpop.schedule inst) = Ok ())

let test_cpop_single_replica () =
  let inst = random_instance ~seed:8 () in
  check_int "eps 0" 0 (Schedule.eps (Cpop.schedule inst))

let test_cpop_chain_on_one_proc () =
  (* a pure chain IS the critical path; CPOP must put it all on the
     processor minimizing total execution *)
  let inst = tiny_instance () in
  let s = Cpop.schedule inst in
  (* totals: P0 = 2+3+5 = 10, P1 = 4+3+1 = 8 -> all on P1, back to back *)
  for t = 0 to 2 do
    check_int "on P1" 1 (Schedule.proc_of s t 0)
  done;
  check_float "chain latency 4+3+1" 8. (Schedule.latency_lower_bound s)

let test_cpop_competitive () =
  let total_cpop = ref 0. and total_heft = ref 0. in
  for seed = 0 to 9 do
    let inst = random_instance ~seed ~n_tasks:60 ~m:10 () in
    total_cpop :=
      !total_cpop +. Schedule.latency_lower_bound (Cpop.schedule inst);
    total_heft :=
      !total_heft +. Schedule.latency_lower_bound (Heft.schedule inst)
  done;
  let ratio = !total_cpop /. !total_heft in
  check_bool "within 2x of HEFT on average" true (ratio > 0.5 && ratio < 2.)

(* ------------------------------------------------------------------ *)
(* PEFT                                                                *)

module Peft = Ftsched_baseline.Peft

let prop_peft_valid =
  QCheck.Test.make ~name:"PEFT schedules are always valid" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let inst = random_instance ~seed ~m:6 () in
      Validate.check (Peft.schedule inst) = Ok ())

let test_peft_oct_exits_zero () =
  let inst = random_instance ~seed:9 ~m:5 () in
  let table = Peft.oct inst in
  let g = Instance.dag inst in
  Array.iter
    (fun e ->
      Array.iter (fun v -> check_float "exit OCT" 0. v) table.(e))
    (Ftsched_dag.Dag.exits g)

let test_peft_oct_chain_values () =
  (* tiny chain: OCT(t2, all procs) = 0; OCT(t1,p) = min_q (E(t2,q) + comm);
     OCT(t0,p) = min_q (OCT(t1,q) + E(t1,q) + comm).
     exec = [[2;4],[3;3],[5;1]], vols 10/20, d̄ = 0.5. *)
  let inst = tiny_instance () in
  let table = Peft.oct inst in
  (* from p=0: staying (q=0): 5+0 = 5; moving (q=1): 1 + 20*0.5 = 11 *)
  check_float "OCT(t1,P0)" 5. table.(1).(0);
  (* from p=1: staying: 1; moving: 5 + 10 = 15 *)
  check_float "OCT(t1,P1)" 1. table.(1).(1);
  (* OCT(t0,P0): q=0 -> 5+3+0 = 8; q=1 -> 1+3+5 = 9 -> 8 *)
  check_float "OCT(t0,P0)" 8. table.(0).(0);
  (* OCT(t0,P1): q=0 -> 5+3+5 = 13; q=1 -> 1+3+0 = 4 -> 4 *)
  check_float "OCT(t0,P1)" 4. table.(0).(1)

let test_peft_competitive () =
  let total_peft = ref 0. and total_heft = ref 0. in
  for seed = 0 to 9 do
    let inst = random_instance ~seed ~n_tasks:60 ~m:10 () in
    total_peft :=
      !total_peft +. Schedule.latency_lower_bound (Peft.schedule inst);
    total_heft :=
      !total_heft +. Schedule.latency_lower_bound (Heft.schedule inst)
  done;
  let ratio = !total_peft /. !total_heft in
  check_bool "within 2x of HEFT on average" true (ratio > 0.5 && ratio < 2.)

let () =
  Alcotest.run "baseline"
    [
      ( "ftbar",
        [
          quick prop_ftbar_valid;
          quick prop_ftbar_survives;
          Alcotest.test_case "npf=0" `Quick test_ftbar_npf0;
          Alcotest.test_case "invalid npf" `Quick test_ftbar_invalid_npf;
          Alcotest.test_case "deterministic" `Quick test_ftbar_deterministic;
          Alcotest.test_case "replicates everywhere" `Quick
            test_ftbar_replicates_everywhere;
          Alcotest.test_case "FTSA beats FTBAR on average" `Quick
            test_ftsa_beats_ftbar_on_average;
        ] );
      ( "heft",
        [
          quick prop_heft_valid;
          Alcotest.test_case "single replica" `Quick test_heft_single_replica;
          Alcotest.test_case "tracks fault-free FTSA" `Quick
            test_heft_close_to_fault_free_ftsa;
          Alcotest.test_case "insertion" `Quick test_heft_insertion_gap;
        ] );
      ( "cpop",
        [
          quick prop_cpop_valid;
          Alcotest.test_case "single replica" `Quick test_cpop_single_replica;
          Alcotest.test_case "chain pinned" `Quick test_cpop_chain_on_one_proc;
          Alcotest.test_case "competitive with HEFT" `Quick test_cpop_competitive;
        ] );
      ( "peft",
        [
          quick prop_peft_valid;
          Alcotest.test_case "OCT exits zero" `Quick test_peft_oct_exits_zero;
          Alcotest.test_case "OCT chain values" `Quick test_peft_oct_chain_values;
          Alcotest.test_case "competitive with HEFT" `Quick test_peft_competitive;
        ] );
    ]

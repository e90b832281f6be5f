(* Shared fixtures for the test suite. *)

module Rng = Ftsched_util.Rng
module Dag = Ftsched_dag.Dag
module Generators = Ftsched_dag.Generators
module Classic = Ftsched_dag.Classic
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Granularity = Ftsched_model.Granularity
module Schedule = Ftsched_schedule.Schedule
module Validate = Ftsched_schedule.Validate

let quick = QCheck_alcotest.to_alcotest

let check_float = Alcotest.(check (float 1e-6))
let check_float_loose = Alcotest.(check (float 1e-3))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A random problem instance; [seed] pins everything. *)
let random_instance ?(n_tasks = 40) ?(m = 6) ?(granularity = 1.0) ~seed () =
  let rng = Rng.create ~seed in
  let dag = Generators.layered rng ~n_tasks () in
  let platform = Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 () in
  let inst = Instance.random_exec rng ~dag ~platform () in
  Granularity.scale_to inst ~target:granularity

(* The benchmark-size instance: a v=800 layered DAG on m=50 processors
   (seed 2008, costs as generated, no granularity rescaling).  The
   engine differential and the warm-start tests check it next to their
   small random inputs. *)
let layered_v800 () =
  let rng = Rng.create ~seed:2008 in
  let dag = Generators.layered rng ~n_tasks:800 () in
  let platform = Platform.random rng ~m:50 ~delay_lo:0.5 ~delay_hi:1.0 () in
  Instance.random_exec rng ~dag ~platform ()

(* A tiny fixed instance for hand computations: 3-task chain on 2 procs.

   exec: t0 -> [2; 4], t1 -> [3; 3], t2 -> [5; 1]; volumes 10 and 20;
   delay 0.5 both ways. *)
let tiny_instance () =
  let b = Dag.Builder.create () in
  let t0 = Dag.Builder.add_task b in
  let t1 = Dag.Builder.add_task b in
  let t2 = Dag.Builder.add_task b in
  Dag.Builder.add_edge b ~src:t0 ~dst:t1 ~volume:10.;
  Dag.Builder.add_edge b ~src:t1 ~dst:t2 ~volume:20.;
  let dag = Dag.Builder.build b in
  let platform = Platform.homogeneous ~m:2 ~unit_delay:0.5 in
  let exec = [| [| 2.; 4. |]; [| 3.; 3. |]; [| 5.; 1. |] |] in
  Instance.create ~dag ~platform ~exec

let replica ~task ~index ~proc ~s ~f ~ps ~pf =
  {
    Schedule.task;
    index;
    proc;
    start = s;
    finish = f;
    pess_start = ps;
    pess_finish = pf;
  }

(* The tiny chain mapped with eps = 1 exactly as FTSA would:

     t0: P0 [0,2]               P1 [0,4]
     t1: P0 [2,5]  (pess [9,12])  P1 [4,7]  (pess [7,10])
     t2: P1 [7,8]  (pess [22,23]) P0 [5,10] (pess [20,25])

   giving M* = 8 and M = 25. *)
let hand_replicas () =
  [|
    [| replica ~task:0 ~index:0 ~proc:0 ~s:0. ~f:2. ~ps:0. ~pf:2.;
       replica ~task:0 ~index:1 ~proc:1 ~s:0. ~f:4. ~ps:0. ~pf:4. |];
    [| replica ~task:1 ~index:0 ~proc:0 ~s:2. ~f:5. ~ps:9. ~pf:12.;
       replica ~task:1 ~index:1 ~proc:1 ~s:4. ~f:7. ~ps:7. ~pf:10. |];
    [| replica ~task:2 ~index:0 ~proc:1 ~s:7. ~f:8. ~ps:22. ~pf:23.;
       replica ~task:2 ~index:1 ~proc:0 ~s:5. ~f:10. ~ps:20. ~pf:25. |];
  |]

let hand_schedule () =
  Schedule.create ~instance:(tiny_instance ()) ~eps:1
    ~replicas:(hand_replicas ()) ~comm:Ftsched_schedule.Comm_plan.all_to_all

(* Theorem 4.1 checked exhaustively: no subset of exactly ε processors
   defeats [s] under the strict policy. *)
let survives_eps_subsets s =
  Ftsched_sim.Worst_case.first_defeat s ~count:(Schedule.eps s) = None

let assert_valid name s =
  match Validate.check s with
  | Ok () -> ()
  | Error errs ->
      Alcotest.failf "%s: invalid schedule: %s" name
        (String.concat "; "
           (List.map (Format.asprintf "%a" Validate.pp_error) errs))

(* Naive substring test, enough for output checks. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Exhaustive subsets of [0..m-1] of size <= k, as int arrays. *)
let subsets_up_to ~m ~k =
  let rec go lo size =
    if size = 0 then [ [] ]
    else
      List.concat_map
        (fun p -> List.map (fun rest -> p :: rest) (go (p + 1) (size - 1)))
        (List.init (max 0 (m - lo)) (fun i -> lo + i))
  in
  List.concat_map (fun size -> go 0 size) (List.init (k + 1) (fun i -> i))
  |> List.map Array.of_list

(* [Comm_plan.is_one_to_one] of a one-edge plan holding [pairs], given as
   (source, destination) replica pairs. *)
let one_to_one_pairs pairs ~eps =
  let module Comm_plan = Ftsched_schedule.Comm_plan in
  let row =
    List.map (fun (l, r) -> { Comm_plan.src_replica = l; dst_replica = r }) pairs
  in
  Comm_plan.is_one_to_one (Comm_plan.of_lists [| row |]) ~eps 0

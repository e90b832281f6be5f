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

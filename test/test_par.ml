(* Tests for Ftsched_par.Par: the deterministic Domain pool must be
   observationally identical to List.map/List.init for any worker count,
   re-raise the smallest-index exception like the sequential route, and
   leave the figure and adversary drivers bit-identical when fanned out. *)

module Par = Ftsched_par.Par
module Adversary = Ftsched_sim.Adversary
module Ftsa = Ftsched_core.Ftsa
open Helpers

let jobs_range = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* ---------------- pool = sequential, property-level ---------------- *)

let prop_map_matches =
  QCheck.Test.make ~name:"parallel_map = List.map for jobs in 1..8" ~count:60
    QCheck.(pair (small_list int) (int_range 1 8))
    (fun (xs, jobs) ->
      let f x = ((x * 31) lxor (x asr 2)) + 7 in
      Par.parallel_map ~jobs f xs = List.map f xs)

let prop_init_matches =
  QCheck.Test.make ~name:"parallel_init = List.init for jobs in 1..8"
    ~count:60
    QCheck.(pair (int_range 0 200) (int_range 1 8))
    (fun (n, jobs) ->
      let f i = float_of_int (i * i) *. 0.75 in
      Par.parallel_init ~jobs n f = List.init n f)

exception Boom of int

let test_exception_propagation () =
  List.iter
    (fun jobs ->
      (* every odd index raises: the smallest failing index (1) must win,
         exactly as on the sequential route. *)
      match
        Par.parallel_init ~jobs 64 (fun i ->
            if i mod 2 = 1 then raise (Boom i) else i)
      with
      | _ -> Alcotest.failf "jobs=%d: expected Boom" jobs
      | exception Boom i ->
          check_int (Printf.sprintf "jobs=%d smallest failing index" jobs) 1 i)
    jobs_range

let test_empty_and_singleton () =
  List.iter
    (fun jobs ->
      check_bool "map []" true (Par.parallel_map ~jobs succ [] = []);
      check_bool "map [x]" true (Par.parallel_map ~jobs succ [ 41 ] = [ 42 ]);
      check_bool "init 0" true (Par.parallel_init ~jobs 0 succ = []))
    jobs_range

let test_invalid_arguments_rejected () =
  check_bool "jobs=0 rejected" true
    (try
       ignore (Par.parallel_map ~jobs:0 Fun.id [ 1 ]);
       false
     with Invalid_argument _ -> true);
  check_bool "negative n rejected" true
    (try
       ignore (Par.parallel_init ~jobs:2 (-1) Fun.id);
       false
     with Invalid_argument _ -> true);
  check_bool "set_default_jobs 0 rejected" true
    (try
       Par.set_default_jobs 0;
       false
     with Invalid_argument _ -> true)

let test_set_default_jobs () =
  let before = Par.default_jobs () in
  Par.set_default_jobs 3;
  check_int "pinned default" 3 (Par.default_jobs ());
  Par.set_default_jobs before

let test_nested_calls_agree () =
  (* an inner parallel_map issued from a worker domain takes the
     sequential route; either way the value must match List.map. *)
  let outer =
    Par.parallel_init ~jobs:4 8 (fun i ->
        Par.parallel_map ~jobs:4 (fun x -> (x * 10) + i) [ 1; 2; 3 ])
  in
  let expect =
    List.init 8 (fun i -> List.map (fun x -> (x * 10) + i) [ 1; 2; 3 ])
  in
  check_bool "nested result identical" true (outer = expect)

(* ---------------- guided chunking ---------------- *)

let prop_chunk_plan_partitions =
  QCheck.Test.make
    ~name:"chunk_plan partitions [0,n) in order, every chunk >= 1" ~count:200
    QCheck.(pair (int_range 0 5000) (int_range 1 64))
    (fun (n, jobs) ->
      let plan = Par.chunk_plan ~n ~jobs in
      let rec covered at = function
        | [] -> at = n
        | (start, len) :: rest -> start = at && len >= 1 && covered (at + len) rest
      in
      covered 0 plan)

let test_chunk_plan_small_n_large_jobs () =
  (* the old fixed [n / (jobs * 8)] rule collapsed to chunk 1 for any
     n < 8*jobs — per-item atomic traffic.  Guided chunks stay >= 1 by
     construction; the point here is the plan stays short (no more
     chunks than items) and still covers everything. *)
  List.iter
    (fun (n, jobs) ->
      let plan = Par.chunk_plan ~n ~jobs in
      check_bool
        (Printf.sprintf "n=%d jobs=%d: at most n chunks" n jobs)
        true
        (List.length plan <= Int.max 1 n);
      check_int
        (Printf.sprintf "n=%d jobs=%d: covers n items" n jobs)
        n
        (List.fold_left (fun acc (_, len) -> acc + len) 0 plan))
    [ (0, 8); (1, 64); (7, 64); (10, 8); (100, 64) ]

let test_chunk_plan_guided_shape () =
  (* large n: the first chunk takes remaining/(2*jobs) and sizes never
     grow as the drain progresses — early chunks amortize the atomic,
     the tail shrinks to single items so no straggler serializes it *)
  let n = 10_000 and jobs = 4 in
  let plan = Par.chunk_plan ~n ~jobs in
  (match plan with
  | (start, first) :: _ ->
      check_int "first chunk starts at 0" 0 start;
      check_int "first chunk n/(2*jobs)" (n / (2 * jobs)) first
  | [] -> Alcotest.fail "empty plan");
  let rec non_increasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  check_bool "chunk sizes non-increasing" true (non_increasing plan);
  check_int "tail chunk is a single item" 1 (snd (List.hd (List.rev plan)));
  check_bool "invalid n rejected" true
    (try
       ignore (Par.chunk_plan ~n:(-1) ~jobs:2);
       false
     with Invalid_argument _ -> true);
  check_bool "invalid jobs rejected" true
    (try
       ignore (Par.chunk_plan ~n:4 ~jobs:0);
       false
     with Invalid_argument _ -> true)

(* ---------------- drivers bit-identical under fan-out ---------------- *)

let test_drivers_jobs_bit_identical () =
  let before = Par.default_jobs () in
  let one = Exp_drivers.digests ~jobs:1 in
  let four = Exp_drivers.digests ~jobs:4 in
  check_int "default worker count restored" before (Par.default_jobs ());
  List.iter2
    (fun (name, d1) (_, d4) ->
      Alcotest.(check string) (name ^ ": jobs=4 = jobs=1") d1 d4)
    one four

let adversary_report ~jobs =
  let inst = random_instance ~seed:31 ~n_tasks:20 ~m:4 () in
  let s = Ftsa.schedule inst ~eps:2 in
  Adversary.search ~seed:11 ~links:1 ~jobs s ~count:2

let test_adversary_jobs_bit_identical () =
  let r1 = adversary_report ~jobs:1 in
  let r4 = adversary_report ~jobs:4 in
  check_bool "adversary report: jobs=4 = jobs=1 (incl. evaluations)" true
    (r1 = r4)

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          quick prop_map_matches;
          quick prop_init_matches;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
          Alcotest.test_case "invalid arguments" `Quick
            test_invalid_arguments_rejected;
          Alcotest.test_case "set_default_jobs" `Quick test_set_default_jobs;
          Alcotest.test_case "nested calls" `Quick test_nested_calls_agree;
          quick prop_chunk_plan_partitions;
          Alcotest.test_case "chunking: small n, many jobs" `Quick
            test_chunk_plan_small_n_large_jobs;
          Alcotest.test_case "chunking: guided shape" `Quick
            test_chunk_plan_guided_shape;
        ] );
      ( "regression",
        [
          Alcotest.test_case "figure digest" `Slow
            test_drivers_jobs_bit_identical;
          Alcotest.test_case "adversary digest" `Slow
            test_adversary_jobs_bit_identical;
        ] );
    ]

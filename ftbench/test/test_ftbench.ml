(* The benchmark's own tests: its statistics, spans, response matching and
   compare verdicts, and a toy-size pass of every workload with its
   checks. *)

open Ftbench

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

let test_percentile_rule () =
  let xs n = Array.init n float_of_int in
  Alcotest.(check bool) "p99 needs 1000 samples" true
    (Stats.percentile (xs 999) 0.99 = None);
  Alcotest.(check bool) "p99 with 1000 samples" true
    (Stats.percentile (xs 1000) 0.99 <> None);
  Alcotest.(check bool) "p90 needs 100 samples" true
    (Stats.percentile (xs 99) 0.9 = None);
  Alcotest.(check bool) "p50 with 20 samples" true
    (Stats.percentile (xs 20) 0.5 = Some 9.5);
  Alcotest.(check bool) "no samples" true (Stats.percentile [||] 0.5 = None);
  (* the tail keeps its target when supported, else lowers to what is *)
  check_float "p99 of 1000" (Ftsched_util.Stats.percentile (xs 1000) 99.)
    (Stats.tail ~target:0.99 (xs 1000));
  check_float "p98 of 960" (Ftsched_util.Stats.percentile (xs 960) 98.)
    (Stats.tail ~target:0.98 (xs 960));
  check_float "p99 lowered to p98 with 500" (Ftsched_util.Stats.percentile (xs 500) 98.)
    (Stats.tail ~target:0.99 (xs 500));
  check_float "median of a few" 2. (Stats.tail ~target:0.99 [| 1.; 3.; 2. |])

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check_float "q1" 2.75 q1;
  check_float "q2" 5.5 q2;
  check_float "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, q2, q3 = Stats.quartiles [ 2.; 1. ] in
  check_float "q1 of two" 0.75 q1;
  check_float "q2 of two" 1.5 q2;
  check_float "q3 of two" 2.25 q3

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let span ~id ~parent a b =
  {
    Trace.id;
    parent;
    req = -1;
    layer = "l";
    name = string_of_int id;
    start_ns = Int64.of_int a;
    end_ns = Int64.of_int b;
    alloc_words = 0.;
  }

let test_self_time () =
  let spans =
    [
      span ~id:1 ~parent:0 0 100;
      (* overlapping children are counted once; one overhangs the parent *)
      span ~id:2 ~parent:1 10 30;
      span ~id:3 ~parent:1 20 50;
      span ~id:4 ~parent:1 90 120;
      (* a grandchild does not count against the grandparent *)
      span ~id:5 ~parent:2 12 14;
    ]
  in
  let self =
    List.map (fun (s, ns) -> (s.Trace.id, Int64.to_int ns)) (Trace.self_times spans)
  in
  Alcotest.(check (list (pair int int)))
    "self times"
    [ (1, 50); (2, 18); (3, 30); (4, 30); (5, 2) ]
    self

let test_nested_spans () =
  Trace.reset ();
  Trace.enabled := true;
  Trace.span ~layer:"outer" ~name:"a" (fun () ->
      Trace.span ~layer:"inner" ~name:"b" ignore);
  Trace.enabled := false;
  Trace.span ~layer:"off" ~name:"d" ignore;
  match Trace.spans () with
  | [ b; a ] ->
      Alcotest.(check string) "inner first" "inner" b.Trace.layer;
      Alcotest.(check int) "parent" a.Trace.id b.Trace.parent;
      Alcotest.(check int) "top level" 0 a.Trace.parent
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Response matching                                                   *)

let test_matcher () =
  let module M = Serve_open.Matcher in
  let m = M.create () in
  M.sent m ~id:0 ~expect:None;
  M.sent m ~id:1 ~expect:(Some "H1");
  M.sent m ~id:2 ~expect:None;
  M.sent m ~id:3 ~expect:(Some "H3");
  M.sent m ~id:4 ~expect:(Some "H1");
  let got = Alcotest.(check (option int)) in
  Alcotest.(check int) "outstanding" 5 (M.outstanding m);
  (* hot hits overtake the cold request sent before them *)
  got "earliest hot with these bytes" (Some 1) (M.receive m "H1");
  got "the next one" (Some 4) (M.receive m "H1");
  got "cold in order" (Some 0) (M.receive m "cold-0");
  got "hot by bytes" (Some 3) (M.receive m "H3");
  got "cold in order" (Some 2) (M.receive m "cold-2");
  got "nothing outstanding" None (M.receive m "stray");
  Alcotest.(check int) "drained" 0 (M.outstanding m)

(* ------------------------------------------------------------------ *)
(* Compare verdicts                                                    *)

let test_verdicts () =
  let lower bound = { Compare.unit_ = "ms"; better = Compare.Lower; bound } in
  let higher = { Compare.unit_ = "1/s"; better = Compare.Higher; bound = Some 0.1 } in
  let v spec parent change =
    Compare.verdict_name
      (Compare.verdict spec ~parent ~change ~pairs:(List.combine parent change))
  in
  let base = [ 100.; 101.; 99.; 100.5; 99.5; 100.2; 99.8; 100.1; 99.9; 100. ] in
  let scale k = List.map (fun x -> x *. k) base in
  let expect what verdict spec change =
    Alcotest.(check string) what verdict (v spec base change)
  in
  let bounded = lower (Some 0.1) in
  expect "faster in every pair" "improved" bounded (scale 0.9);
  expect "within noise" "unchanged" bounded (scale 1.0);
  expect "slower than the bound" "regressed" bounded (scale 1.2);
  expect "slower within the bound" "unchanged" bounded (scale 1.05);
  expect "higher is better" "regressed" higher (scale 0.8);
  expect "higher is better, faster" "improved" higher (scale 1.2);
  expect "no bound: losing every pair" "regressed" (lower None) (scale 1.5);
  expect "no bound: noise" "unchanged" (lower None) base;
  let noisy = [ 50.; 150.; 80.; 120.; 100.; 60.; 140.; 90.; 110.; 100. ] in
  Alcotest.(check string)
    "parent spread wider than the bound" "unresolved"
    (v bounded noisy (List.rev noisy))

(* ------------------------------------------------------------------ *)
(* Toy-size pass of every workload                                     *)

let spec_names key =
  let j =
    Json.of_string
      (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all)
  in
  match Json.member key j with
  | Json.Arr l -> List.map (fun e -> Option.get (Json.to_str (Json.member "name" e))) l
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let quick ?(seed = 2008) ~trace run =
  Trace.reset ();
  Trace.enabled := trace;
  let r = run { Harness.seed; seconds = 0.05; trace; quick = true } in
  Trace.enabled := false;
  r

let test_workload (name, run) () =
  let r = quick ~trace:false run in
  Alcotest.(check (list string)) "no failed check" [] r.Report.problems;
  Alcotest.(check int) "no failed operation" 0 r.Report.failed;
  Alcotest.(check bool) "operations attempted" true (r.Report.attempted >= 1);
  Alcotest.(check (list string))
    (name ^ ": every end-to-end metric")
    (spec_names "end_to_end")
    (List.map (fun (m : Report.metric) -> m.name) r.Report.metrics);
  List.iter
    (fun (m : Report.metric) ->
      if not (m.value > 0. && Float.is_finite m.value) then
        Alcotest.failf "%s: %s = %g" name m.name m.value)
    r.Report.metrics;
  let again = quick ~trace:false run and other = quick ~seed:2009 ~trace:false run in
  Alcotest.(check string) "same seed, same digest" r.Report.digest again.Report.digest;
  Alcotest.(check bool) "held-out seed, other digest" true
    (r.Report.digest <> other.Report.digest);
  let t = quick ~trace:true run in
  Alcotest.(check int) "traced: no failed operation" 0 t.Report.failed;
  Alcotest.(check (list string))
    (name ^ ": every per-layer metric")
    (spec_names "per_layer")
    (List.map (fun (m : Report.metric) -> m.name) t.Report.metrics)

let () =
  (* the workloads start their helper processes (serve-open's daemon, the
     pace kernel) by running this executable again *)
  match Array.to_list Sys.argv with
  | [ _; "serve-child"; sock ] -> Serve_open.child_main sock
  | [ _; "pace-child"; size ] -> Pace.child_main (int_of_string size)
  | _ ->
    Alcotest.run "ftbench"
      [
        ( "stats",
          [
            Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
            Alcotest.test_case "quartiles" `Quick test_quartiles;
          ] );
        ( "trace",
          [
            Alcotest.test_case "self time" `Quick test_self_time;
            Alcotest.test_case "nesting" `Quick test_nested_spans;
          ] );
        ("serve", [ Alcotest.test_case "response matcher" `Quick test_matcher ]);
        ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
        ( "workloads",
          List.map
            (fun (n, run) -> Alcotest.test_case n `Quick (test_workload (n, run)))
            Workloads.all
        );
      ]

(* Tests for Ftsched_exp: workload generation, the per-graph runner and
   the figure drivers. *)

module Workload = Ftsched_exp.Workload
module Runner = Ftsched_exp.Runner
module Figures = Ftsched_exp.Figures
module Figures_claims = Ftsched_exp.Claims
module Table = Ftsched_util.Table
module Granularity = Ftsched_model.Granularity
open Helpers

let tiny_spec = Exp_drivers.tiny_spec

let test_paper_spec_constants () =
  check_int "20 processors" 20 Workload.paper.Workload.n_procs;
  check_int "60 graphs" 60 Workload.paper.Workload.graphs_per_point;
  check_int "tasks lo" 100 Workload.paper.Workload.tasks_lo;
  check_int "tasks hi" 150 Workload.paper.Workload.tasks_hi;
  check_int "10 granularities" 10 (List.length Workload.granularities);
  check_float "first" 0.2 (List.hd Workload.granularities);
  check_float "last" 2.0 (List.nth Workload.granularities 9)

let test_workload_instance_properties () =
  let inst =
    Workload.instance Workload.paper ~master_seed:1 ~granularity:0.6 ~index:3
  in
  let n = Instance.n_tasks inst in
  check_bool "task count in [100,150]" true (n >= 100 && n <= 150);
  check_int "m" 20 (Instance.n_procs inst);
  check_bool "granularity hit" true
    (Float.abs (Granularity.granularity inst -. 0.6) < 1e-6)

let test_workload_deterministic () =
  let a = Workload.instance tiny_spec ~master_seed:9 ~granularity:1.0 ~index:0 in
  let b = Workload.instance tiny_spec ~master_seed:9 ~granularity:1.0 ~index:0 in
  check_int "same size" (Instance.n_tasks a) (Instance.n_tasks b);
  check_float "same exec cell" (Instance.exec a 0 0) (Instance.exec b 0 0)

let test_workload_index_varies () =
  let a = Workload.instance tiny_spec ~master_seed:9 ~granularity:1.0 ~index:0 in
  let b = Workload.instance tiny_spec ~master_seed:9 ~granularity:1.0 ~index:1 in
  check_bool "different instances" true
    (Instance.n_tasks a <> Instance.n_tasks b
    || Instance.exec a 0 0 <> Instance.exec b 0 0)

(* The first graph of a 6-processor point. *)
let first_graph ~master_seed =
  List.hd
    (Workload.graphs
       (Workload.with_procs tiny_spec 6)
       ~master_seed ~granularity:1.0 Fun.id)

let test_run_graph_metrics () =
  let r =
    Runner.run_graph (first_graph ~master_seed:31) ~eps:1
      ~crash_counts:[ 0; 1 ] ~crash_samples:2 ()
  in
  check_bool "crash counts in order" true
    (List.map fst r.Runner.crash_latencies = [ 0; 1 ]);
  check_bool "normalizer positive" true (r.Runner.normalizer > 0.);
  check_bool "defeat rate in [0,1]" true
    (r.Runner.mc_strict_defeated >= 0. && r.Runner.mc_strict_defeated <= 1.);
  (* bound sanity on the raw metrics *)
  let get = Runner.value r in
  List.iter
    (fun a ->
      check_bool "lb <= ub" true
        (get (Runner.Lower a) <= get (Runner.Upper a) +. 1e-6))
    Runner.[ Ftsa; Mc_ftsa; Ftbar ];
  check_bool "crash0 = lb" true
    (Float.abs
       (get (Runner.Crash (Runner.Ftsa, 0)) -. get (Runner.Lower Runner.Ftsa))
    < 1e-6)

let test_mean_of () =
  let r =
    Runner.run_graph (first_graph ~master_seed:32) ~eps:1 ~crash_counts:[ 0 ]
      ~crash_samples:1 ()
  in
  let mean = Runner.mean_of [ r ] (Runner.Lower Runner.Ftsa) in
  check_float "single-graph mean"
    (r.Runner.lower_bounds.Runner.ftsa /. r.Runner.normalizer)
    mean;
  check_bool "crash count not replayed rejected" true
    (try
       ignore (Runner.mean_of [ r ] (Runner.Crash (Runner.Ftsa, 1)));
       false
     with Invalid_argument _ -> true)

let test_figure_tables_shape () =
  let p =
    Figures.figure ~spec:tiny_spec ~master_seed:5 ~crash_samples:1 ~eps:1
      ~crash_counts:[ 0; 1 ] ()
  in
  check_int "bounds rows = 10 granularities" 10 (Table.row_count p.Figures.bounds);
  check_int "crash rows" 10 (Table.row_count p.Figures.crash);
  check_int "overhead rows" 10 (Table.row_count p.Figures.overhead);
  check_int "defeat rows" 10 (Table.row_count p.Figures.mc_defeats);
  let csv = Table.to_csv p.Figures.bounds in
  check_bool "has FTSA-LB column" true (contains csv "FTSA-LB");
  check_bool "has FaultFree col" true (contains csv "FaultFree-FTSA")

let test_figure4_tables () =
  let latency, overhead =
    Figures.figure4 ~spec:tiny_spec ~master_seed:5 ~crash_samples:1 ()
  in
  check_int "latency rows" 10 (Table.row_count latency);
  check_int "overhead rows" 10 (Table.row_count overhead);
  check_bool "2-crash column" true
    (contains (Table.to_csv latency) "FTSA-2crash")

let test_table1_shape () =
  let t = Figures.table1 ~sizes:[ 30; 60 ] ~m:8 ~eps:2 () in
  check_int "rows" 2 (Table.row_count t);
  check_bool "has FTBAR column" true (contains (Table.to_csv t) "FTBAR (s)")

let test_paper_sizes () =
  Alcotest.(check (list int)) "paper sizes"
    [ 100; 500; 1000; 2000; 3000; 5000 ]
    Figures.paper_sizes

let micro_spec = Exp_drivers.micro_spec

(* CSV digests of every deterministic driver at the sweeps above: a
   change to how the drivers fan out or reduce must keep every table byte
   for byte. *)
let test_pinned_driver_digests () =
  let pinned =
    [
      ("fig1", "dcdadfa7134536a9aa1b62bbdbf44c31");
      ("fig4", "3df135ca135ebd3f3799b1911d97bcc8");
      ("contention", "bc0bbc1b6dbc0503a22e28fa33c8213f");
      ("reliability", "df996cb40d0b58d6929a3043361770b4");
      ("rftsa", "8f6fbb689a91194edc1eed7e01e9e2ff");
      ("redundancy", "1e605c4b9d666e14d5494cb36d1cbe91");
      ("procs", "cbda58bf1689a5792a665237a0f2e972");
      ("recovery", "3cd8393f9184dc0d35fb768101bfbef5");
      ("linkloss", "3659c268e35b62d90d3c0682050f80a5");
    ]
  in
  List.iter
    (fun (name, run) ->
      Alcotest.(check string)
        (name ^ " digest") (List.assoc name pinned)
        (Exp_drivers.digest (run ())))
    Exp_drivers.all

let test_contention_ablation_shape () =
  let t = Figures.contention_ablation ~spec:micro_spec ~eps:1 ~ports:[ 1 ] () in
  check_int "rows" 10 (Table.row_count t);
  let csv = Table.to_csv t in
  check_bool "free column" true (contains csv "FTSA free");
  check_bool "one-port column" true (contains csv "MC-FTSA 1-port")

(* The link-loss and recovery ablations at the smallest sweep that still
   runs every column: 2 graphs per point, 2 scenarios per graph. *)
let test_link_loss_ablation_shape () =
  let t =
    Figures.link_loss_ablation ~spec:tiny_spec ~scenarios_per_graph:2 ~eps:2
      ~losses:[ 0.05; 0.3 ] ()
  in
  check_int "one row per loss rate" 2 (Table.row_count t);
  let csv = Table.to_csv t in
  check_bool "no-retransmission column" true (contains csv "MC dft noRT");
  check_bool "recovery column" true (contains csv "MC+rec dft")

let test_recovery_ablation_shape () =
  let p =
    Figures.recovery_ablation ~spec:tiny_spec ~scenarios_per_graph:2 ~eps:2
      ~intensities:[ 0.15 ] ~delta_factors:[ 0.02 ] ()
  in
  check_int "one campaign row" 1 (Table.row_count p.Figures.campaign);
  check_int "one exactly-eps row" 1 (Table.row_count p.Figures.exact_eps);
  (* Finding 1's regime: recovery survives exactly eps failures *)
  match String.split_on_char '\n' (Table.to_csv p.Figures.exact_eps) with
  | header :: row :: _ ->
      check_bool "recovery defeat column" true (contains header "MC+rec defeat");
      Alcotest.(check string)
        "MC+rec defeat rate under exactly eps failures" "0.000"
        (List.nth (String.split_on_char ',' row) 2)
  | _ -> Alcotest.fail "csv shape"

let test_redundancy_ablation_shape () =
  let t = Figures.redundancy_ablation ~spec:micro_spec ~scenarios_per_graph:2 ~eps:2 () in
  check_int "one row per k" 3 (Table.row_count t);
  check_bool "defeat column" true (contains (Table.to_csv t) "defeat rate")

let test_reliability_ablation_shape () =
  let t =
    Figures.reliability_ablation ~spec:micro_spec ~trials:50 ~p_fail:0.1 ()
  in
  check_int "eps 0..4" 5 (Table.row_count t);
  check_bool "bound column" true (contains (Table.to_csv t) "Thm-4.1 bound")

let test_rftsa_ablation_shape () =
  let t = Figures.rftsa_ablation ~spec:micro_spec ~trials:20 ~eps:1 () in
  check_int "one row per alpha" 5 (Table.row_count t);
  check_bool "mission column" true
    (contains (Table.to_csv t) "mission reliability")

let test_procs_sweep_shape_and_trend () =
  let t =
    Figures.procs_sweep ~spec:micro_spec ~crash_samples:1 ~eps:1
      ~procs:[ 4; 16 ] ()
  in
  check_int "rows" 2 (Table.row_count t);
  let csv = Table.to_csv t in
  check_bool "overhead column" true (contains csv "overhead %");
  (* replication hurts more on the small platform *)
  match String.split_on_char '\n' csv with
  | _header :: row4 :: row16 :: _ ->
      let last r = List.nth (String.split_on_char ',' r)
                     (List.length (String.split_on_char ',' r) - 1) in
      check_bool "overhead decreases with m" true
        (float_of_string (last row4) > float_of_string (last row16))
  | _ -> Alcotest.fail "csv shape"

(* Claims verifier: the shape is stable at any spec; at >= 4 graphs per
   point the verdicts themselves are expected to all hold
   ([ftsched experiment claims --full] re-verifies them at paper scale). *)
let test_claims () =
  let spec = Workload.with_graphs_per_point Workload.quick 4 in
  let verdicts = Figures_claims.verify ~spec () in
  check_int "twelve claims" 12 (List.length verdicts);
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "claim %s holds (%s)" v.Figures_claims.id
           v.Figures_claims.detail)
        true v.Figures_claims.holds)
    verdicts;
  check_bool "all_hold" true (Figures_claims.all_hold verdicts);
  check_int "table rows" 12 (Table.row_count (Figures_claims.to_table verdicts))

let () =
  Alcotest.run "exp"
    [
      ( "workload",
        [
          Alcotest.test_case "paper constants" `Quick test_paper_spec_constants;
          Alcotest.test_case "instance properties" `Quick
            test_workload_instance_properties;
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "index varies" `Quick test_workload_index_varies;
        ] );
      ( "runner",
        [
          Alcotest.test_case "metric keys" `Quick test_run_graph_metrics;
          Alcotest.test_case "mean_of" `Quick test_mean_of;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure panels" `Slow test_figure_tables_shape;
          Alcotest.test_case "figure 4" `Slow test_figure4_tables;
          Alcotest.test_case "table 1" `Quick test_table1_shape;
          Alcotest.test_case "paper sizes" `Quick test_paper_sizes;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "contention shape" `Slow
            test_contention_ablation_shape;
          Alcotest.test_case "link loss shape" `Slow
            test_link_loss_ablation_shape;
          Alcotest.test_case "recovery shape" `Slow
            test_recovery_ablation_shape;
          Alcotest.test_case "redundancy shape" `Slow
            test_redundancy_ablation_shape;
          Alcotest.test_case "reliability shape" `Slow
            test_reliability_ablation_shape;
          Alcotest.test_case "rftsa shape" `Slow test_rftsa_ablation_shape;
          Alcotest.test_case "procs sweep" `Slow test_procs_sweep_shape_and_trend;
          Alcotest.test_case "pinned driver digests" `Slow
            test_pinned_driver_digests;
        ] );
      ( "claims",
        [ Alcotest.test_case "paper claims verify" `Slow test_claims ] );
    ]

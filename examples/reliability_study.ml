(* How much reliability does each extra replica buy — and what does it
   cost in messages and latency?

   This example walks the whole trade-off space on one workflow:
   for eps = 0..4 it reports the guaranteed latency M, the message count,
   the exact probability of surviving independent processor failures
   (p = 0.05 and 0.15), and the mission reliability when processors die
   at exponential times during the run.  It then contrasts FTSA with the
   paper's MC-FTSA under the strict execution semantics, reproducing the
   end-to-end gap documented in DESIGN.md, and shows the redundant-k
   repair closing it.

   Run with: dune exec examples/reliability_study.exe *)

module Gen = Ftsched_dag.Generators
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Granularity = Ftsched_model.Granularity
module Schedule = Ftsched_schedule.Schedule
module Table = Ftsched_util.Table
module Crash_exec = Ftsched_sim.Crash_exec
module Rng = Ftsched_util.Rng
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module R = Ftsched_reliability.Reliability

let () =
  let rng = Rng.create ~seed:2024 in
  let dag = Gen.layered rng ~n_tasks:60 () in
  let m = 10 in
  let platform = Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 () in
  let inst =
    Granularity.scale_to (Instance.random_exec rng ~dag ~platform ()) ~target:1.0
  in

  Format.printf "workflow: 60 tasks on %d processors@.@." m;

  (* 1. FTSA: reliability vs replication budget. *)
  let table =
    Table.create
      ~columns:
        [
          "eps"; "M (guaranteed)"; "messages"; "R(p=0.05)"; "R(p=0.15)";
          "mission R";
        ]
  in
  List.iter
    (fun eps ->
      let s = Ftsa.schedule inst ~eps in
      let mc_rng = Rng.create ~seed:(100 + eps) in
      let rate = 0.2 /. Schedule.latency_upper_bound s in
      let mission, _ = R.mission mc_rng s ~rate ~trials:2000 () in
      Table.add_row table
        [
          string_of_int eps;
          Printf.sprintf "%.0f" (Schedule.latency_upper_bound s);
          string_of_int (Schedule.inter_processor_messages s);
          Printf.sprintf "%.4f" (R.exact s Crash_exec.Strict ~p_fail:0.05);
          Printf.sprintf "%.4f" (R.exact s Crash_exec.Strict ~p_fail:0.15);
          Printf.sprintf "%.4f" mission.R.mean;
        ])
    [ 0; 1; 2; 3; 4 ];
  Format.printf "FTSA: each extra replica buys reliability, costs latency:@.";
  Table.print table;

  (* 2. The MC-FTSA gap and the redundant repair, at eps = 2. *)
  let eps = 2 in
  let p_fail = 0.1 in
  let gap =
    Table.create
      ~columns:[ "variant"; "messages"; "R strict"; "R reroute" ]
  in
  let row name s =
    Table.add_row gap
      [
        name;
        string_of_int (Schedule.inter_processor_messages s);
        Printf.sprintf "%.4f" (R.exact s Crash_exec.Strict ~p_fail);
        Printf.sprintf "%.4f" (R.exact s Crash_exec.Reroute ~p_fail);
      ]
  in
  row "FTSA" (Ftsa.schedule inst ~eps);
  row "MC-FTSA (paper)" (Mc_ftsa.schedule inst ~eps);
  row "MC-FTSA redundant k=2"
    (Mc_ftsa.schedule ~strategy:(Mc_ftsa.Redundant 2) inst ~eps);
  row "MC-FTSA redundant k=3"
    (Mc_ftsa.schedule ~strategy:(Mc_ftsa.Redundant 3) inst ~eps);
  Format.printf
    "@.eps=%d, p_fail=%.2f: the paper's MC-FTSA under strict (plan-only) \
     execution vs the redundant repair:@." eps p_fail;
  Table.print gap;
  Format.printf
    "@.Note how 'MC-FTSA (paper)' strict reliability sits at the \
     no-failure mass (%.4f) — its replication buys nothing end-to-end. \
     Each extra sender per input buys reliability back, and k=eps+1 \
     matches FTSA exactly (at a comparable message bill: unlike \
     all-to-all, a selected plan cannot exploit the full intra-processor \
     shortcut).@."
    ((1. -. p_fail) ** float_of_int m)

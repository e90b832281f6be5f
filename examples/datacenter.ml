(* A datacenter scenario combining the extensions: rack topology,
   correlated rack failures, domain-aware placement, and one-port
   network contention.

   The platform is three racks of four machines.  Within a rack links
   are fast; across racks every message crosses the aggregation switch.
   Failures are correlated: when a rack's power feed dies, all four of
   its machines die together — the paper's independent-failure model
   (Prop. 4.1's distinct-processor rule) is not enough here, as this
   example demonstrates, and the domain-aware variant repairs it.

   Run with: dune exec examples/datacenter.exe *)

module Dag = Ftsched_dag.Dag
module Gen = Ftsched_dag.Generators
module Topology = Ftsched_platform.Topology
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Granularity = Ftsched_model.Granularity
module Schedule = Ftsched_schedule.Schedule
module Validate = Ftsched_schedule.Validate
module Table = Ftsched_util.Table
module Rng = Ftsched_util.Rng
module Ftsa = Ftsched_core.Ftsa
module Ftsa_domains = Ftsched_core.Ftsa_domains
module Scenario = Ftsched_sim.Scenario
module Event_sim = Ftsched_sim.Event_sim
module Crash_exec = Ftsched_sim.Crash_exec
module Worst_case = Ftsched_sim.Worst_case

let racks = 3
let per_rack = 4
let m = racks * per_rack
let domains = Array.init m (fun p -> p / per_rack)

(* Rack-local hop 0.1, rack-to-switch hop 0.5: intra-rack pairs cost 0.2,
   cross-rack pairs 1.2 (via two switch hops and the local hops). *)
let platform =
  let links = ref [] in
  (* model each rack's ToR switch and the aggregation switch implicitly
     by direct links: local pairs 0.2, cross pairs 1.2 *)
  for a = 0 to m - 1 do
    for b = a + 1 to m - 1 do
      let d = if domains.(a) = domains.(b) then 0.2 else 1.2 in
      links := (a, b, d) :: !links
    done
  done;
  Topology.of_links ~m ~links:!links

let () =
  let rng = Rng.create ~seed:31 in
  let dag = Gen.layered rng ~n_tasks:80 () in
  let inst =
    Granularity.scale_to
      (Instance.random_exec rng ~dag ~platform ())
      ~target:0.8
  in
  Format.printf "platform: %d racks x %d machines; workflow %a@.@." racks
    per_rack Dag.pp dag;

  let eps = 2 in
  let plain = Ftsa.schedule inst ~eps in
  let aware = Ftsa_domains.schedule ~domains inst ~eps in
  List.iter (fun (n, s) ->
      match Validate.check s with
      | Ok () -> ()
      | Error _ -> Format.printf "%s: INVALID@." n)
    [ ("plain", plain); ("aware", aware) ];

  (* 1. Independent failures: both tolerate any 2 machine crashes. *)
  Format.printf "any 2 machine failures:  plain FTSA %b, domain-aware %b@."
    (Worst_case.first_defeat plain ~count:eps = None)
    (Worst_case.first_defeat aware ~count:eps = None);

  (* 2. Correlated failures: kill whole racks. *)
  let rack_scenario d =
    Scenario.of_list (Ftsa_domains.procs_of_domain ~domains d)
  in
  let survives_rack s d = Crash_exec.survives s (rack_scenario d) in
  let tbl = Table.create ~columns:[ "failed rack"; "plain FTSA"; "domain-aware" ] in
  for d = 0 to racks - 1 do
    Table.add_row tbl
      [
        Printf.sprintf "rack %d (4 machines)" d;
        (if survives_rack plain d then "survives" else "DEFEATED");
        (if survives_rack aware d then "survives" else "DEFEATED");
      ]
  done;
  Table.print tbl;
  Format.printf
    "@.Both tolerate eps=2 machine failures; only the domain-aware variant \
     places the 3 replicas in 3 racks, so no single rack loss can kill a \
     task.  Latency cost: M* %.0f -> %.0f, M %.0f -> %.0f.@.@."
    (Schedule.latency_lower_bound plain)
    (Schedule.latency_lower_bound aware)
    (Schedule.latency_upper_bound plain)
    (Schedule.latency_upper_bound aware);

  (* 3. The same schedules replayed under one-port contention. *)
  let lat s network =
    match
      (Event_sim.run ~network s ~fail_times:(Array.make m infinity))
        .Event_sim.latency
    with
    | Some l -> l
    | None -> nan
  in
  Format.printf
    "one-port replay (no failures): plain %.0f, domain-aware %.0f \
     (contention-free: %.0f / %.0f)@."
    (lat plain (Event_sim.Sender_ports 1))
    (lat aware (Event_sim.Sender_ports 1))
    (lat plain Event_sim.Contention_free)
    (lat aware Event_sim.Contention_free);

  (* 4. The trade-off curve: what does each extra tolerated failure cost
        on this platform? *)
  Format.printf "@.latency/fault-tolerance profile (plain FTSA):@.";
  List.iter
    (fun (e, lb, ub) -> Format.printf "  eps=%d  M*=%.0f  M=%.0f@." e lb ub)
    (Ftsched_core.Bicriteria.latency_profile inst ~max_eps:4)

(* Golden-value regression tests.

   Every number here was produced by the current implementation on a
   pinned seed and checked against the validators, the reference oracle
   and the simulators.  They exist to catch *unintentional* behavioural
   drift: if an edit changes any value, either the edit has a bug or the
   change is intentional — in which case the expected values (and any
   archived experiment outputs) must be regenerated together.

   The tiny-chain values are additionally hand-derived in
   test/test_schedule.ml. *)

module Schedule = Ftsched_schedule.Schedule
module Serialize = Ftsched_schedule.Serialize
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Ftbar = Ftsched_baseline.Ftbar
module Heft = Ftsched_baseline.Heft
module Cpop = Ftsched_baseline.Cpop
module Workload = Ftsched_exp.Workload
open Helpers

let golden = Alcotest.(check (float 1e-6))

(* One paper-workload instance, pinned: seed 2008, granularity 1.0,
   index 0 — the first graph of every figure's g=1.0 point. *)
let pinned_instance () =
  Workload.instance Workload.paper ~master_seed:2008 ~granularity:1.0 ~index:0

(* MC-FTSA with two senders per destination replica on that instance. *)
let redundant_plan inst =
  Mc_ftsa.schedule ~seed:2008 ~strategy:(Mc_ftsa.Redundant 2) inst ~eps:2

let test_instance_shape () =
  let inst = pinned_instance () in
  check_int "tasks" 135 (Instance.n_tasks inst);
  check_int "procs" 20 (Instance.n_procs inst);
  check_int "edges" 852 (Ftsched_dag.Dag.n_edges (Instance.dag inst))

let test_ftsa_golden () =
  let inst = pinned_instance () in
  let s = Ftsa.schedule ~seed:2008 inst ~eps:2 in
  golden "M*" 4629.011464 (Schedule.latency_lower_bound s);
  golden "M" 5991.839780 (Schedule.latency_upper_bound s);
  check_int "messages" 6342 (Schedule.inter_processor_messages s)

let test_mc_golden () =
  let inst = pinned_instance () in
  let s = Mc_ftsa.schedule ~seed:2008 inst ~eps:2 in
  golden "M*" 6161.288773 (Schedule.latency_lower_bound s);
  golden "M" 6193.253678 (Schedule.latency_upper_bound s);
  check_int "messages" 2126 (Schedule.inter_processor_messages s)

let test_ftbar_golden () =
  let inst = pinned_instance () in
  let s = Ftbar.schedule ~seed:2008 inst ~npf:2 in
  golden "M*" 5379.374497 (Schedule.latency_lower_bound s);
  golden "M" 8674.520458 (Schedule.latency_upper_bound s)

(* Zero-loss communication faults must reproduce the plain event-driven
   latencies bit-for-bit: [Scenario.lossy ()] (loss 0, no outages) is
   detected as reliable and takes the exact unfaulted emit path, drawing
   nothing from the fault RNG. Exact float equality, no tolerance. *)
let test_zero_loss_bit_for_bit () =
  let inst = pinned_instance () in
  let m = Instance.n_procs inst in
  let faults = Ftsched_sim.Scenario.lossy () in
  List.iter
    (fun (name, s) ->
      List.iter
        (fun (net_name, network) ->
          let fail_times = Array.make m infinity in
          let plain = Ftsched_sim.Event_sim.run ~network s ~fail_times in
          let faulted =
            Ftsched_sim.Event_sim.run ~network ~faults s ~fail_times
          in
          check_bool
            (Printf.sprintf "%s/%s latency bit-for-bit" name net_name)
            true
            (plain.Ftsched_sim.Event_sim.latency
            = faulted.Ftsched_sim.Event_sim.latency);
          check_int
            (Printf.sprintf "%s/%s no retransmissions" name net_name)
            0 faulted.Ftsched_sim.Event_sim.retransmissions;
          check_int
            (Printf.sprintf "%s/%s no losses" name net_name)
            0 faulted.Ftsched_sim.Event_sim.lost_messages)
        [
          ("free", Ftsched_sim.Event_sim.Contention_free);
          ("one-port", Ftsched_sim.Event_sim.Sender_ports 1);
        ])
    [
      ("ftsa", Ftsa.schedule ~seed:2008 inst ~eps:2);
      ("mc-ftsa", Mc_ftsa.schedule ~seed:2008 inst ~eps:2);
    ]

let test_fault_free_golden () =
  let inst = pinned_instance () in
  golden "FTSA ff" 2720.905673
    (Schedule.latency_lower_bound (Ftsa.fault_free inst));
  golden "HEFT" 2741.900591
    (Schedule.latency_lower_bound (Heft.schedule inst));
  golden "CPOP" 2948.755512
    (Schedule.latency_lower_bound (Cpop.schedule inst));
  golden "PEFT" 2957.984335
    (Schedule.latency_lower_bound (Ftsched_baseline.Peft.schedule inst))

(* ------------------------------------------------------------------ *)
(* Bit-for-bit schedule digests.

   MD5 over every replica's (task, index, proc, start, finish,
   pess_start, pess_finish) printed with 17 significant digits — enough
   to round-trip any double, so two schedules share a digest iff they are
   bit-for-bit identical.  The FTSA-family digests were captured from the
   pre-kernel implementations (private engine state, per-scheduler
   earliest-gap copies) and prove the kernel refactor — hoisted eq-(1)
   reduction, shared Proc_state timelines, generic driver — reproduces
   every schedule exactly.  The HEFT/PEFT/CPOP digests are post-kernel:
   their committed replicas now start at the true timeline-slot start
   instead of [finish − duration] (equal up to the last float bits;
   makespans above are unchanged). *)

let schedule_digest s =
  let buf = Buffer.create 4096 in
  let inst = Schedule.instance s in
  for t = 0 to Instance.n_tasks inst - 1 do
    Array.iter
      (fun (r : Schedule.replica) ->
        Buffer.add_string buf
          (Printf.sprintf "%d:%d:%d:%.17g:%.17g:%.17g:%.17g;" r.Schedule.task
             r.Schedule.index r.Schedule.proc r.Schedule.start r.Schedule.finish
             r.Schedule.pess_start r.Schedule.pess_finish))
      (Schedule.replicas s t)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let check_digest = Alcotest.(check string)

let test_schedule_digests () =
  let inst = pinned_instance () in
  let m = Instance.n_procs inst in
  check_digest "ftsa eps=2" "33a437bb9ecf7a399d487341a3ade07c"
    (schedule_digest (Ftsa.schedule ~seed:2008 inst ~eps:2));
  check_digest "mc-ftsa greedy eps=2" "9a96f90562bf42e6414117f55f65d6ec"
    (schedule_digest (Mc_ftsa.schedule ~seed:2008 inst ~eps:2));
  check_digest "mc-ftsa bottleneck eps=2" "07688f2d5071185f1d7a7d6ffbcaaad8"
    (schedule_digest
       (Mc_ftsa.schedule ~seed:2008 ~strategy:Mc_ftsa.Bottleneck inst ~eps:2));
  check_digest "ftbar npf=2" "5bb8eae8d5a61134ee26cf50d242e3bb"
    (schedule_digest (Ftbar.schedule ~seed:2008 inst ~npf:2));
  check_digest "ca-ftsa eps=2" "216be2f1d23eb167bdcd39ae4dba72cc"
    (schedule_digest (Ftsched_core.Ca_ftsa.schedule ~seed:2008 inst ~eps:2));
  let rates = Array.init m (fun p -> if p mod 2 = 0 then 0.0001 else 0.002) in
  check_digest "r-ftsa eps=2" "4412b2013d9967ab0ace5cd847d83a56"
    (schedule_digest (Ftsched_core.R_ftsa.schedule ~seed:2008 ~rates inst ~eps:2));
  let domains = Array.init m (fun p -> p mod 5) in
  check_digest "ftsa-domains eps=2" "9c1e7e230a95cbd4c84c5c19705787ba"
    (schedule_digest
       (Ftsched_core.Ftsa_domains.schedule ~seed:2008 ~domains inst ~eps:2));
  check_digest "heft" "25c36db939f0fb6db0ce9093c21f55b7"
    (schedule_digest (Heft.schedule inst));
  check_digest "peft" "396bffb9fbbcf8e3d114e0a1c333b9d3"
    (schedule_digest (Ftsched_baseline.Peft.schedule inst));
  check_digest "cpop" "97ed5700d5b26324ba4c0fe8285bb900"
    (schedule_digest (Cpop.schedule inst))

(* The [ftsched v1] bytes themselves: the digests above hash replica
   fields through [%.17g], so they say nothing about the codec's output.
   These pin [Serialize.schedule_to_string] of the golden FTSA and
   MC-FTSA (greedy) plans, captured before the codec was rewritten as a
   direct byte writer, and of the order-sensitive bottleneck and
   redundant-2 plans, captured before the plan became one flat table:
   the codec writes each row in stored order, and in a redundant row one
   source feeds two destinations. *)
let test_codec_digests () =
  let inst = pinned_instance () in
  let codec s = Digest.to_hex (Digest.string (Serialize.schedule_to_string s)) in
  check_digest "ftsa eps=2 ftsched v1" "ce807bceca216447481c9df4a3f14d13"
    (codec (Ftsa.schedule ~seed:2008 inst ~eps:2));
  check_digest "mc-ftsa greedy eps=2 ftsched v1" "a9dcbd91d10d2d4bcb0d060c41c813e1"
    (codec (Mc_ftsa.schedule ~seed:2008 inst ~eps:2));
  check_digest "mc-ftsa bottleneck eps=2 ftsched v1"
    "4318f2f275494626318fa09750f0e8d4"
    (codec (Mc_ftsa.schedule ~seed:2008 ~strategy:Mc_ftsa.Bottleneck inst ~eps:2));
  check_digest "mc-ftsa redundant 2 eps=2 ftsched v1"
    "8a3650c1a5cab07edf054ae473465a04"
    (codec (redundant_plan inst))

(* ------------------------------------------------------------------ *)
(* Online recovery outcomes, bit for bit.

   MD5 over the whole [Recovery.outcome]: every replica's outcome with
   its start and finish as [%h], the latency, the engine's event and
   message counts, the degraded-run metrics, and the injection, kill and
   detection counts.  The reference engine has no re-entrant interface,
   so no second engine races [Recovery]'s interleaving of sweeps and
   engine steps; these pins, captured on the per-message engine, hold
   every later engine to the same outcomes.  (The frozen controller
   [Recovery_ref] races the sweeps themselves, on the same engine.) *)

module Recovery = Ftsched_recovery.Recovery
module Event_sim = Ftsched_sim.Event_sim
module Metrics = Ftsched_schedule.Metrics

let recovery_digest (o : Recovery.outcome) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.bprintf buf fmt in
  let opt = function Some x -> Printf.sprintf "%h" x | None -> "none" in
  let r = o.Recovery.result in
  add "latency %s;" (opt r.Event_sim.latency);
  Array.iteri
    (fun task reps ->
      add "%d:" task;
      Array.iter
        (function
          | Event_sim.Completed { start; finish } -> add "%h,%h;" start finish
          | Event_sim.Lost -> add "lost;")
        reps)
    r.Event_sim.outcomes;
  add "events %d retrans %d lost %d;" r.Event_sim.events_processed
    r.Event_sim.retransmissions r.Event_sim.lost_messages;
  let d = o.Recovery.degraded in
  add "degraded %d/%d sinks %s/%d partial %s complete %b;"
    d.Metrics.completed_tasks d.Metrics.total_tasks
    (String.concat "," (List.map string_of_int d.Metrics.completed_sinks))
    d.Metrics.total_sinks (opt d.Metrics.partial_latency) d.Metrics.complete;
  add "injections %d kills %d detected %d" o.Recovery.injections
    o.Recovery.kills o.Recovery.detected_failures;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Processors of a plan, busiest first. *)
let busiest s =
  let m = Instance.n_procs (Schedule.instance s) in
  Array.of_list
    (List.map snd
       (List.sort
          (fun a b -> compare b a)
          (List.init m (fun p -> (Schedule.busy_time s p, p)))))

(* The engine's part of {!recovery_digest}: one [Event_sim] run. *)
let sim_digest (r : Event_sim.result) =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.bprintf buf fmt in
  let opt = function Some x -> Printf.sprintf "%h" x | None -> "none" in
  add "latency %s;" (opt r.Event_sim.latency);
  Array.iteri
    (fun task reps ->
      add "%d:" task;
      Array.iter
        (function
          | Event_sim.Completed { start; finish } -> add "%h,%h;" start finish
          | Event_sim.Lost -> add "lost;")
        reps)
    r.Event_sim.outcomes;
  add "events %d retrans %d lost %d" r.Event_sim.events_processed
    r.Event_sim.retransmissions r.Event_sim.lost_messages;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Replays of the redundant-2 plan, whose emission order is its stored
   row order: fault-free, and with the busiest processor crashing at a
   quarter of M*.  Captured before the plan became one flat table. *)
let test_redundant_replay_digests () =
  let inst = pinned_instance () in
  let s = redundant_plan inst in
  let m = Instance.n_procs inst in
  check_digest "redundant 2 fault-free" "9aae39e50c2ff87a23422ef3d793793e"
    (sim_digest (Event_sim.run s ~fail_times:(Array.make m infinity)));
  let crash =
    {
      Ftsched_sim.Scenario.proc = (busiest s).(0);
      at = 0.25 *. Schedule.latency_lower_bound s;
    }
  in
  check_digest "redundant 2, one timed crash" "46d750341c19854cc350388ee93cbf8a"
    (sim_digest (Event_sim.run_timed s [ crash ]))

(* Timed-crash sets for a plan, in units of its M*: the busiest
   processor at a quarter; the three busiest at a quarter, a half and
   three quarters (the scale benchmarks' recovery); two at once; eight
   staggered, beyond any replication; one dead from the start with a
   second mid-run. *)
let crash_sets s =
  let mstar = Schedule.latency_lower_bound s in
  let busiest = busiest s in
  let at k f = { Ftsched_sim.Scenario.proc = busiest.(k); at = f *. mstar } in
  [
    [ at 0 0.25 ];
    [ at 0 0.25; at 1 0.5; at 2 0.75 ];
    [ at 0 0.4; at 1 0.4 ];
    List.init 8 (fun k -> at k (0.1 *. float_of_int (k + 1)));
    [ at 3 0.; at 4 0.5 ];
  ]

let recovery_outcomes ?network ?faults ~delta s =
  List.map (Recovery.run_timed ?network ?faults ~delta s) (crash_sets s)

(* One digest over the outcomes of every crash set. *)
let outcomes_digest outcomes =
  Digest.to_hex
    (Digest.string (String.concat " " (List.map recovery_digest outcomes)))

let recovery_plans inst =
  [
    ("ftsa", Ftsa.schedule ~seed:2008 inst ~eps:2);
    ("mc-ftsa", Mc_ftsa.schedule ~seed:2008 inst ~eps:2);
  ]

let test_recovery_digests () =
  let inst = pinned_instance () in
  List.iter2
    (fun (name, s) pins ->
      let mstar = Schedule.latency_lower_bound s in
      List.iter2
        (fun frac want ->
          check_digest
            (Printf.sprintf "%s recovery, delta = %g M*" name frac)
            want
            (outcomes_digest (recovery_outcomes ~delta:(frac *. mstar) s)))
        [ 0.; 0.02; 0.2 ] pins)
    (recovery_plans inst)
    [
      [
        "5f0c18e180f08531a528df24cc4118cd";
        "c9ad9eb3857234887ae16b44f8934fc2";
        "69101de68109226bec6beabad8ca25e6";
      ];
      [
        "f21fc0b428546208a14445d773e9dbd4";
        "9564645a4c305ecb3791e734cf46bdc5";
        "10fb0f338cda34681e83f7aeb20388ba";
      ];
    ]

(* The same crash sets at δ = 0.02 M* on the per-message paths, which
   carry an injected replica's inputs: one sender port per processor,
   and lossy links (5% loss, two retries) with an outage window on the
   link between the two busiest processors. *)
let test_recovery_digests_per_message () =
  let inst = pinned_instance () in
  List.iter2
    (fun (name, s) pins ->
      let mstar = Schedule.latency_lower_bound s in
      let busiest = busiest s in
      let lossy =
        Ftsched_sim.Scenario.lossy ~loss:0.05 ~retries:2 ~seed:7
          ~outages:
            [
              Ftsched_sim.Scenario.outage ~src:busiest.(0) ~dst:busiest.(1)
                ~from_t:(0.2 *. mstar) ~until_t:(0.6 *. mstar);
            ]
          ()
      in
      List.iter2
        (fun (label, network, faults) want ->
          let outcomes =
            recovery_outcomes ?network ?faults ~delta:(0.02 *. mstar) s
          in
          let some f = List.exists f outcomes in
          check_bool
            (Printf.sprintf "%s over %s injects" name label)
            true
            (some (fun o -> o.Recovery.injections > 0));
          if faults <> None then
            check_bool
              (Printf.sprintf "%s over %s re-sends" name label)
              true
              (some (fun o -> o.Recovery.result.Event_sim.retransmissions > 0));
          check_digest
            (Printf.sprintf "%s recovery over %s, delta = 0.02 M*" name label)
            want (outcomes_digest outcomes))
        [
          ("one sender port", Some (Event_sim.Sender_ports 1), None);
          ("lossy links", None, Some lossy);
        ]
        pins)
    (recovery_plans inst)
    [
      [
        "a3e294f94056ef29da0453501cf6a9e8"; "76c6b08b0c30722508177c97c4b8492a";
      ];
      [
        "5d3ae225d1786a6701ee68fe6cd32224"; "c60b1bd5b6b869cda6a1866149e2d91d";
      ];
    ]

(* The post-drain repair on reliable links.  With a re-mapping budget
   of one per task, the eight staggered crashes leave tasks missing
   once the last detection sweep has run and the engine has drained,
   while twelve processors survive.  [Recovery_ref] then runs its forced
   repair sweep, a full pass over every task at the drained engine's
   [now]; [Recovery.run] skips it on reliable links (see recovery.mli),
   and the outcomes agree.  An incomplete outcome with a survivor proves
   the reference's sweep ran (completion is monotone, so the repair
   loop's guard held on entry). *)
let test_forced_repair_reliable () =
  let inst = pinned_instance () in
  let m = Instance.n_procs inst in
  List.iter2
    (fun (name, s) want ->
      let mstar = Schedule.latency_lower_bound s in
      let timed = List.nth (crash_sets s) 3 in
      let delta = 0.02 *. mstar in
      let o = Recovery.run_timed ~rounds:1 ~delta s timed in
      check_bool (name ^ " = reference controller") true
        (o = Ftsched_oracle.Recovery_ref.run_timed ~rounds:1 ~delta s timed);
      check_bool (name ^ " leaves work missing") false
        o.Recovery.degraded.Metrics.complete;
      check_bool (name ^ " has a survivor") true
        (o.Recovery.detected_failures < m);
      check_digest (name ^ " forced repair outcome") want (recovery_digest o))
    (recovery_plans inst)
    [ "35c974c2ec79698631e5b614d99c71a0"; "688d061ad27f6f5e12fa320839934742" ]

(* The post-drain repair on lossy links, where it does inject: with no
   crash there is no detection sweep, so every injection of this run is
   the repair re-executing tasks that lost messages starved. *)
let test_forced_repair_lossy () =
  let inst = pinned_instance () in
  let s = Mc_ftsa.schedule ~seed:2008 inst ~eps:2 in
  let fail_times = Array.make (Instance.n_procs inst) infinity in
  let faults = Ftsched_sim.Scenario.lossy ~loss:0.05 ~retries:2 ~seed:7 () in
  let o = Recovery.run ~faults s ~fail_times in
  check_int "repair injections" 55 o.Recovery.injections;
  check_bool "complete" true o.Recovery.degraded.Metrics.complete;
  check_bool "= reference controller" true
    (o = Ftsched_oracle.Recovery_ref.run ~faults s ~fail_times);
  check_digest "lossy repair outcome" "867c1b3767f1ca73fad73980a5e9404c"
    (recovery_digest o)

(* The kernel driver versus the naive oracle, with EXACT float equality
   (test_core checks 1e-9 on random instances; here the pinned instance
   gets the stronger bit-for-bit claim). *)
let test_ftsa_equals_reference_exactly () =
  let inst = pinned_instance () in
  for eps = 0 to 2 do
    let s = Ftsa.schedule ~seed:2008 inst ~eps in
    let r = Reference_ftsa.schedule ~seed:2008 inst ~eps in
    for task = 0 to Instance.n_tasks inst - 1 do
      let a = Schedule.replicas s task and b = r.Reference_ftsa.replicas.(task) in
      check_int (Printf.sprintf "eps=%d task=%d replica count" eps task)
        (Array.length b) (Array.length a);
      Array.iteri
        (fun i (x : Schedule.replica) ->
          let y = b.(i) in
          check_bool
            (Printf.sprintf "eps=%d task=%d replica=%d bit-for-bit" eps task i)
            true
            (x.proc = y.Reference_ftsa.proc
            && x.start = y.Reference_ftsa.start
            && x.finish = y.Reference_ftsa.finish
            && x.pess_start = y.Reference_ftsa.pess_start
            && x.pess_finish = y.Reference_ftsa.pess_finish))
        a
    done
  done

let () =
  Alcotest.run "regression"
    [
      ( "golden",
        [
          Alcotest.test_case "pinned instance shape" `Quick test_instance_shape;
          Alcotest.test_case "ftsa" `Quick test_ftsa_golden;
          Alcotest.test_case "mc-ftsa" `Quick test_mc_golden;
          Alcotest.test_case "ftbar" `Quick test_ftbar_golden;
          Alcotest.test_case "fault-free trio" `Quick test_fault_free_golden;
          Alcotest.test_case "zero loss bit-for-bit" `Quick
            test_zero_loss_bit_for_bit;
          Alcotest.test_case "schedule digests" `Quick test_schedule_digests;
          Alcotest.test_case "codec digests" `Quick test_codec_digests;
          Alcotest.test_case "recovery digests" `Quick test_recovery_digests;
          Alcotest.test_case "recovery digests, per-message paths" `Quick
            test_recovery_digests_per_message;
          Alcotest.test_case "redundant replay digests" `Quick
            test_redundant_replay_digests;
          Alcotest.test_case "forced repair on lossy links" `Quick
            test_forced_repair_lossy;
          Alcotest.test_case "forced repair on reliable links" `Quick
            test_forced_repair_reliable;
          Alcotest.test_case "ftsa equals reference exactly" `Quick
            test_ftsa_equals_reference_exactly;
        ] );
    ]

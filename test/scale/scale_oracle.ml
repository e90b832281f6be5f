(* The invariants the test suite checks on small graphs, re-checked on
   the two graphs the scale benchmarks plan, with m = 50 and eps = 2:

   - the DAG's CSR rows, iterators, entries and exits against the list
     reference built from [Dag.iter_edges];
   - the graph's edge list rebuilt through [Dag.Builder]: as is it
     builds, and with one early edge added again at the end [build]
     rejects it, naming the added edge;
   - [Validate.check] on the FTSA and MC-FTSA plans, and its flat
     data-feasibility pass against the frozen list-based one
     ([Validate_ref]) on each plan and on a copy with shifted replicas,
     and its flat robust-selection pass against the frozen one on the
     MC-FTSA plan and on a copy with repeated and swapped pairs;
   - each processor's planned order ([Schedule.timeline]) against a
     polymorphic sort of the replica table by (start, task, index
     descending);
   - the schedule digests of both plans (MC-FTSA with the greedy
     selector), pinned bit for bit, and the MD5 of the MC-FTSA plan's
     text, communication plan included, from an untraced and from a
     traced run;
   - the flat [Event_sim] against the reference engine, fault-free and
     with one crash of the busiest processor at a quarter of M*, and
     that crash under the one-port network ([Sender_ports 1]), where
     every message is an event, on both MC-FTSA plans and the pegasus
     FTSA plan;
   - the whole [Recovery] outcome from the benchmarks' three timed
     crashes with delta = 0.02 M*, pinned bit for bit, and equal to the
     frozen list-based controller's ([Recovery_ref]);
   - the heap pops of the fault-free FTSA replay, printed with the
     events it processes, at most a tenth of those on the layered graph;
   - the processors an untraced FTSA and MC-FTSA run evaluate eq. (1)
     exactly on per task, printed and bounded, the counting run's plan
     equal to the pinned one;
   - the [Serialize] round trip of both plans;
   - the codec against the frozen [Printf]-and-[split] one on both
     plans: the two writers emit the same bytes, and each parser reads
     the other's output back to the same bytes;
   - the flat [Crash_exec.run] against the list-based reference on 4
     sampled exactly-eps crash subsets of each plan, under both the
     strict and the reroute policy (on two domains);
   - 16 sampled exactly-eps crash subsets, each survived by FTSA under
     [Crash_exec.survives ~policy:Strict] (Prop. 4.3).

   Prints one line per check and its wall clock; exits 1 if any fails. *)

module Dag = Ftsched_dag.Dag
module Generators = Ftsched_dag.Generators
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Validate = Ftsched_schedule.Validate
module Comm_plan = Ftsched_schedule.Comm_plan
module Serialize = Ftsched_schedule.Serialize
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Ftsa_policy = Ftsched_core.Ftsa_policy
module Driver = Ftsched_kernel.Driver
module Event_sim = Ftsched_sim.Event_sim
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Recovery = Ftsched_recovery.Recovery
module Metrics = Ftsched_schedule.Metrics
module Adjacency = Ftsched_oracle.Adjacency
module Event_sim_ref = Ftsched_oracle.Event_sim_ref
module Crash_exec_ref = Ftsched_oracle.Crash_exec_ref
module Recovery_ref = Ftsched_oracle.Recovery_ref
module Serialize_ref = Ftsched_oracle.Serialize_ref
module Validate_ref = Ftsched_oracle.Validate_ref
module Rng = Ftsched_util.Rng
module Par = Ftsched_par.Par

let m = 50
let eps = 2
let seed = 2008
let subsets = 16
let replay_subsets = 4
let failures = ref 0

let check what f =
  let t0 = Unix.gettimeofday () in
  let verdict =
    match f () with
    | Ok () -> "ok"
    | Error why ->
        incr failures;
        "FAIL: " ^ why
  in
  Printf.printf "  %-44s %7.2f s  %s\n%!" what
    (Unix.gettimeofday () -. t0)
    verdict

let of_bool why b = if b then Ok () else Error why

(* MD5 over every replica's fields at 17 significant digits, the
   regression suite's [schedule_digest]: equal iff the plans' replicas
   are bit-for-bit equal. *)
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

(* Captured before the kernel step evaluated into workspace buffers and
   selected MC-FTSA edges over flat candidate sets. *)
let pinned_digests =
  [
    ("layered", "ftsa", "a289a099158dec3de5d9068404416ed1");
    ("layered", "mc-ftsa", "5ee47c02f8057ba17114fc199334339e");
    ("pegasus", "ftsa", "e51d154f835eb5842235a07f9731f055");
    ("pegasus", "mc-ftsa", "ae8444695c956a8330578431225e1ba1");
  ]

let digest_pinned name algo s =
  let want =
    List.find_map
      (fun (g, a, d) -> if g = name && a = algo then Some d else None)
      pinned_digests
  in
  let got = schedule_digest s in
  of_bool
    (Printf.sprintf "digest %s, pinned %s" got (Option.get want))
    (Some got = want)

(* MD5 of each MC-FTSA plan's [ftsched v1] text (every replica time as
   a hex float, the communication plan in full), untraced and traced.
   A traced run evaluates every processor without gathering the
   predecessor columns, so its commit gathers them itself: the one path
   where it does. *)
let pinned_mc_plans =
  [
    ("layered", "9478bf687dbf4de71878660a99047d35");
    ("pegasus", "8c6c36e4f71230cfe60fa9b061cf9e8a");
  ]

let mc_plan_pinned name s =
  let want = List.assoc name pinned_mc_plans in
  let got = Digest.to_hex (Digest.string (Serialize.schedule_to_string s)) in
  of_bool (Printf.sprintf "plan MD5 %s, pinned %s" got want) (got = want)

let validated s =
  match Validate.check s with
  | Ok () -> Ok ()
  | Error errs ->
      Error
        (Format.asprintf "%d errors, first: %a" (List.length errs)
           Validate.pp_error (List.hd errs))

(* The flat [Validate.data_feasible] against the frozen list-based one,
   on the plan and on a copy with every replica of each 50th task moved
   one time unit earlier: the same errors in the same order. *)
let data_feasible_races s =
  let inst = Schedule.instance s in
  let shifted =
    Schedule.create ~instance:inst ~eps:(Schedule.eps s)
      ~replicas:
        (Array.init (Instance.n_tasks inst) (fun t ->
             Array.map
               (fun (r : Schedule.replica) ->
                 if t mod 50 = 0 then
                   { r with start = r.start -. 1.; finish = r.finish -. 1. }
                 else r)
               (Schedule.replicas s t)))
      ~comm:(Schedule.comm s)
  in
  let errs = Validate.data_feasible shifted in
  if Validate.data_feasible s <> Validate_ref.data_feasible s then
    Error "the plan's errors differ"
  else if errs <> Validate_ref.data_feasible shifted then
    Error "the shifted copy's errors differ"
  else if errs = [] then Error "the shifted copy shows no error"
  else Ok ()

(* The flat [Validate.robust_selection] against the frozen list-based
   one, on the plan and on a copy whose every 50th row repeats its first
   pair and whose rows 25 after those swap the destinations of their
   first two pairs: the same errors in the same order. *)
let robust_selection_races s =
  let inst = Schedule.instance s in
  let eps = Schedule.eps s and plan = Schedule.comm s in
  let row e =
    match Comm_plan.to_list plan ~eps e with
    | a :: rest when e mod 50 = 0 -> a :: rest @ [ a ]
    | a :: b :: rest when e mod 50 = 25 ->
        { a with dst_replica = b.dst_replica }
        :: { b with dst_replica = a.dst_replica } :: rest
    | pairs -> pairs
  in
  let mutated =
    Schedule.create ~instance:inst ~eps
      ~replicas:(Array.init (Instance.n_tasks inst) (Schedule.replicas s))
      ~comm:
        (Comm_plan.of_lists
           (Array.init (Dag.n_edges (Instance.dag inst)) row))
  in
  let errs = Validate.robust_selection mutated in
  if Validate.robust_selection s <> Validate_ref.robust_selection s then
    Error "the plan's errors differ"
  else if errs <> Validate_ref.robust_selection mutated then
    Error "the mutated copy's errors differ"
  else if errs = [] then Error "the mutated copy shows no error"
  else Ok ()

(* Every processor's stored order against one built here: the replica
   table walked task by task, bucketed by processor, each bucket sorted
   by (start, task, -index) with polymorphic [compare]. *)
let planned_order s =
  let buckets = Array.make m [] in
  for t = 0 to Instance.n_tasks (Schedule.instance s) - 1 do
    Array.iter
      (fun (r : Schedule.replica) ->
        buckets.(r.proc) <- (r.start, r.task, - r.index) :: buckets.(r.proc))
      (Schedule.replicas s t)
  done;
  let rec first_mismatch p =
    if p = m then Ok ()
    else
      let want = List.map (fun (_, t, k) -> (t, - k)) (List.sort compare buckets.(p))
      and got =
        Array.to_list
          (Array.map
             (fun (r : Schedule.replica) -> (r.task, r.index))
             (Schedule.timeline s p))
      in
      if want = got then first_mismatch (p + 1)
      else Error (Printf.sprintf "P%d's order differs" p)
  in
  first_mismatch 0

let round_trips s =
  let doc = Serialize.schedule_to_string s in
  of_bool "serialize -> parse -> serialize differs"
    (String.equal doc
       (Serialize.schedule_to_string (Serialize.schedule_of_string doc)))

let codecs_agree s =
  let doc = Serialize.schedule_to_string s in
  let doc_ref = Serialize_ref.schedule_to_string s in
  if not (String.equal doc doc_ref) then Error "the writers differ"
  else if
    not
      (String.equal doc
         (Serialize.schedule_to_string (Serialize_ref.schedule_of_string doc)))
  then Error "the oracle's parser reads the writer's output back differently"
  else
    of_bool "the parser reads the oracle's output back differently"
      (String.equal doc_ref
         (Serialize_ref.schedule_to_string (Serialize.schedule_of_string doc_ref)))

(* One crash of the busiest processor at a quarter of M*. *)
let busiest_crash s =
  let busiest = ref 0 in
  for p = 1 to m - 1 do
    if Schedule.busy_time s p > Schedule.busy_time s !busiest then busiest := p
  done;
  let crash = Array.make m infinity in
  crash.(!busiest) <- 0.25 *. Schedule.latency_lower_bound s;
  crash

let engines_agree s =
  let no_fail = Array.make m infinity in
  let flat = Event_sim.run s ~fail_times:no_fail in
  if flat <> Event_sim_ref.run s ~fail_times:no_fail then
    Error "fault-free run differs"
  else
    let crash = busiest_crash s in
    of_bool "single-crash run differs"
      (Event_sim.run s ~fail_times:crash
      = Event_sim_ref.run s ~fail_times:crash)

(* The per-message path at scale: the single crash under one port. *)
let one_port_engines_agree s =
  let crash = busiest_crash s and network = Event_sim.Sender_ports 1 in
  of_bool "one-port single-crash run differs"
    (Event_sim.run ~network s ~fail_times:crash
    = Event_sim_ref.run ~network s ~fail_times:crash)

(* MD5 over the whole [Recovery.outcome] (the regression suite's
   [recovery_digest]): every replica's outcome with its times as [%h],
   the engine's counts, the degraded-run metrics, and the injection,
   kill and detection counts. *)
let recovery_digest (o : Recovery.outcome) =
  let buf = Buffer.create 65536 in
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

(* The scale benchmarks' recovery run: the plan's three busiest
   processors crash at about a quarter, a half and three quarters of M*
   (the benchmark's seeded 2% jitter, after the draw its single-crash
   replay takes), detected 0.02 M* later. *)
let benchmark_crashes s =
  let mstar = Schedule.latency_lower_bound s in
  let jitter = Rng.create ~seed in
  let near f = f *. mstar *. Rng.float_in jitter 0.98 1.02 in
  ignore (near 0.25);
  let busiest =
    List.init m (fun p -> (Schedule.busy_time s p, p))
    |> List.sort (fun a b -> compare b a)
    |> List.map snd
  in
  List.mapi
    (fun k proc -> { Scenario.proc; at = near (float_of_int (k + 1) *. 0.25) })
    (List.filteri (fun k _ -> k < 3) busiest)

(* Captured on the per-message engine, before arrivals were folded into
   ready times. *)
let pinned_recovery =
  [
    ("layered", "ftsa", "017d66cd897b22b2070850eef5bfb775");
    ("layered", "mc-ftsa", "81ad9e2ca622f1767cb9daa004054a29");
    ("pegasus", "ftsa", "8170e6f6d01565dd24eb1a7940f044e3");
    ("pegasus", "mc-ftsa", "149422edaa0727409fd7b8a0702259ff");
  ]

let recovery_pinned name algo s =
  let want =
    List.find_map
      (fun (g, a, d) -> if g = name && a = algo then Some d else None)
      pinned_recovery
    |> Option.get
  in
  let crashes = benchmark_crashes s in
  let delta = 0.02 *. Schedule.latency_lower_bound s in
  let got = recovery_digest (Recovery.run_timed ~delta s crashes) in
  of_bool (Printf.sprintf "digest %s, pinned %s" got want) (got = want)

(* The whole outcome of the same recovery run against the frozen
   list-based controller. *)
let recovery_races s =
  let crashes = benchmark_crashes s in
  let delta = 0.02 *. Schedule.latency_lower_bound s in
  of_bool "outcome differs"
    (Recovery.run_timed ~delta s crashes = Recovery_ref.run_timed ~delta s crashes)

(* Heap pops of the fault-free FTSA replay.  The per-message engine
   popped one event per delivery and completion, 2,056,866 on the
   layered graph; message-free replay must pop at most a tenth of that
   there, and never more than it processes. *)
let max_heap_pops = [ ("layered", 205_686) ]

let heap_pops_bounded name s =
  let eng = Event_sim.Engine.create s ~fail_times:(Array.make m infinity) in
  Event_sim.Engine.drain eng;
  let pops = Event_sim.Engine.heap_pops eng in
  let events = Event_sim.Engine.events_processed eng in
  Printf.printf "  fault-free FTSA replay: %d events, %d heap pops\n%!" events
    pops;
  match List.assoc_opt name max_heap_pops with
  | Some bound when pops > bound ->
      Error (Printf.sprintf "%d heap pops, bound %d" pops bound)
  | _ ->
      of_bool
        (Printf.sprintf "%d heap pops for %d events" pops events)
        (pops <= events)

(* Processors evaluated exactly per task by an untraced run: [m] minus
   those [Driver.eval_pruned] left at [infinity] in [fin_opt] when
   [choose] runs.  Measured 5.473 / 5.195 (layered) and 4.248 / 4.145
   (pegasus) for FTSA / MC-FTSA; the bounds leave about 5% of headroom.
   The bound without the remote-arrival term evaluated 10.66 / 9.81 and
   7.61 / 7.21. *)
let max_evaluated =
  [
    ("layered", "ftsa", 5.75);
    ("layered", "mc-ftsa", 5.45);
    ("pegasus", "ftsa", 4.45);
    ("pegasus", "mc-ftsa", 4.35);
  ]

let evaluated_bounded name algo inst s =
  let mode =
    if algo = "ftsa" then Ftsa_policy.All_to_all_comm
    else Ftsa_policy.Min_comm Ftsa_policy.Greedy_edges
  in
  let policy = Ftsa_policy.policy ~instance:inst ~eps ~mode in
  let evaluated = ref 0 in
  let counting =
    {
      policy with
      Driver.choose =
        (fun st t ->
          for p = 0 to m - 1 do
            if st.Driver.fin_opt.(p) <> infinity then incr evaluated
          done;
          policy.Driver.choose st t);
    }
  in
  let counted = Ftsa_policy.run ~seed ~instance:inst counting in
  let per_task = float_of_int !evaluated /. float_of_int (Instance.n_tasks inst) in
  let bound =
    List.find_map
      (fun (g, a, b) -> if g = name && a = algo then Some b else None)
      max_evaluated
    |> Option.get
  in
  Printf.printf "  %s: %.3f processors evaluated per task (bound %.2f)\n%!" algo
    per_task bound;
  if schedule_digest counted <> schedule_digest s then
    Error "the counting run made another plan"
  else if per_task > bound then
    Error (Printf.sprintf "%.3f processors evaluated per task, bound %.2f" per_task bound)
  else Ok ()

let survives_subsets s =
  let rng = Rng.create ~seed in
  let rec go i =
    if i = subsets then Ok ()
    else
      let sc = Scenario.random rng ~m ~count:eps in
      if Crash_exec.survives ~policy:Strict s sc then go (i + 1)
      else Error (Format.asprintf "defeated by %a" Scenario.pp sc)
  in
  go 0

(* The flat crash replay against the list-based reference on a few
   sampled exactly-eps subsets, under both policies: the whole result,
   every replica's times included.  The reference costs about a second
   a call on the layered graph, so the replays run on two domains. *)
let replays_agree s =
  let rng = Rng.create ~seed:(seed + 1) in
  let cases =
    List.concat_map
      (fun sc -> [ (sc, Crash_exec.Strict); (sc, Crash_exec.Reroute) ])
      (List.init replay_subsets (fun _ -> Scenario.random rng ~m ~count:eps))
  in
  let agree =
    Par.parallel_map ~jobs:2
      (fun (sc, policy) ->
        Crash_exec.run ~policy s sc = Crash_exec_ref.run ~policy s sc)
      cases
  in
  match List.find_opt (fun (_, ok) -> not ok) (List.combine cases agree) with
  | None -> Ok ()
  | Some ((sc, policy), _) ->
      Error
        (Format.asprintf "%s replay differs under %a"
           (if policy = Crash_exec.Strict then "strict" else "reroute")
           Scenario.pp sc)

(* The graph's edges fed to a fresh builder, with [extra] appended. *)
let rebuild dag extra =
  let b = Dag.Builder.create () in
  for _ = 1 to Dag.n_tasks dag do
    ignore (Dag.Builder.add_task b)
  done;
  Dag.iter_edges dag (fun _ ~src ~dst ~volume -> Dag.Builder.add_edge b ~src ~dst ~volume);
  List.iter (fun (src, dst) -> Dag.Builder.add_edge b ~src ~dst ~volume:1.) extra;
  Dag.Builder.build b

let duplicate_rejected dag =
  let e = Dag.n_edges dag in
  let src, dst = Dag.edge_endpoints dag (min 3 (e - 1)) in
  let want = Printf.sprintf "Dag.Builder.build: duplicate edge %d (%d -> %d)" e src dst in
  match rebuild dag [] with
  | exception Invalid_argument why -> Error ("the edge list as is: " ^ why)
  | g when Dag.n_edges g <> e -> Error "the edge list as is: edge count differs"
  | _ -> (
      match rebuild dag [ (src, dst) ] with
      | exception Invalid_argument got when got = want -> Ok ()
      | exception Invalid_argument got -> Error (Printf.sprintf "%S, want %S" got want)
      | _ -> Error "built with a duplicate edge")

let graph name generate =
  let t0 = Unix.gettimeofday () in
  let rng = Rng.create ~seed in
  let dag = generate rng in
  let platform = Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 () in
  let inst = Instance.random_exec rng ~dag ~platform () in
  Printf.printf "%s: v=%d e=%d m=%d eps=%d\n%!" name (Dag.n_tasks dag)
    (Dag.n_edges dag) m eps;
  let adj = Adjacency.of_dag dag in
  check "CSR rows and iterators = reference" (fun () ->
      Adjacency.check_rows adj);
  check "entries/exits = reference" (fun () -> Adjacency.check_ends adj);
  check "repeated early edge rejected at build" (fun () ->
      duplicate_rejected dag);
  let ftsa = Ftsa.schedule ~seed inst ~eps in
  let mc = Mc_ftsa.schedule ~seed inst ~eps in
  check "mc-ftsa: plan MD5 = pinned" (fun () -> mc_plan_pinned name mc);
  check "mc-ftsa traced: plan MD5 = pinned" (fun () ->
      mc_plan_pinned name
        (Mc_ftsa.schedule ~seed ~trace:(Ftsched_kernel.Trace.create ()) inst ~eps));
  List.iter
    (fun (algo, s) ->
      check (algo ^ ": Validate.check") (fun () -> validated s);
      check (algo ^ ": Validate.data_feasible = reference") (fun () ->
          data_feasible_races s);
      if algo = "mc-ftsa" then
        check (algo ^ ": Validate.robust_selection = reference") (fun () ->
            robust_selection_races s);
      check (algo ^ ": planned order = reference sort") (fun () ->
          planned_order s);
      check (algo ^ ": schedule digest = pinned") (fun () ->
          digest_pinned name algo s);
      check (algo ^ ": evaluated processors per task bounded") (fun () ->
          evaluated_bounded name algo inst s);
      check (algo ^ ": flat Event_sim = reference") (fun () -> engines_agree s);
      if algo = "mc-ftsa" || name = "pegasus" then
        check (algo ^ ": one-port Event_sim = reference") (fun () ->
            one_port_engines_agree s);
      check (algo ^ ": Recovery = pinned") (fun () ->
          recovery_pinned name algo s);
      check (algo ^ ": Recovery = reference") (fun () ->
          recovery_races s);
      check (algo ^ ": serialize round trip") (fun () -> round_trips s);
      check (algo ^ ": codec = reference codec") (fun () -> codecs_agree s);
      check
        (Printf.sprintf "%s: flat Crash_exec = reference, %d subsets" algo
           replay_subsets)
        (fun () -> replays_agree s))
    [ ("ftsa", ftsa); ("mc-ftsa", mc) ];
  check "ftsa: fault-free heap pops bounded" (fun () ->
      heap_pops_bounded name ftsa);
  check
    (Printf.sprintf "ftsa: survives %d exactly-%d subsets (strict)" subsets eps)
    (fun () -> survives_subsets ftsa);
  Printf.printf "%s: %.1f s wall clock\n%!" name (Unix.gettimeofday () -. t0)

let () =
  let t0 = Unix.gettimeofday () in
  graph "layered" (fun rng -> Generators.layered rng ~n_tasks:5000 ());
  graph "pegasus" (fun rng -> Generators.pegasus rng ~n_tasks:15000 ());
  Printf.printf "scale oracle: %d failure(s), %.1f s wall clock\n" !failures
    (Unix.gettimeofday () -. t0);
  if !failures > 0 then exit 1

(* The invariants the test suite checks on small graphs, re-checked on
   the two graphs the scale benchmarks plan, with m = 50 and eps = 2:

   - the DAG's CSR rows, iterators, entries and exits against the list
     reference built from [Dag.iter_edges];
   - [Validate.check] on the FTSA and MC-FTSA plans;
   - the flat [Event_sim] against the reference engine, fault-free and
     with one crash of the busiest processor at a quarter of M*;
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
module Serialize = Ftsched_schedule.Serialize
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Event_sim = Ftsched_sim.Event_sim
module Scenario = Ftsched_sim.Scenario
module Crash_exec = Ftsched_sim.Crash_exec
module Adjacency = Ftsched_oracle.Adjacency
module Event_sim_ref = Ftsched_oracle.Event_sim_ref
module Crash_exec_ref = Ftsched_oracle.Crash_exec_ref
module Serialize_ref = Ftsched_oracle.Serialize_ref
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

let validated s =
  match Validate.check s with
  | Ok () -> Ok ()
  | Error errs ->
      Error
        (Format.asprintf "%d errors, first: %a" (List.length errs)
           Validate.pp_error (List.hd errs))

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

let engines_agree s =
  let no_fail = Array.make m infinity in
  let flat = Event_sim.run s ~fail_times:no_fail in
  if flat <> Event_sim_ref.run s ~fail_times:no_fail then
    Error "fault-free run differs"
  else
    let busiest = ref 0 in
    for p = 1 to m - 1 do
      if Schedule.busy_time s p > Schedule.busy_time s !busiest then
        busiest := p
    done;
    let crash = Array.copy no_fail in
    crash.(!busiest) <- 0.25 *. Schedule.latency_lower_bound s;
    of_bool "single-crash run differs"
      (Event_sim.run s ~fail_times:crash
      = Event_sim_ref.run s ~fail_times:crash)

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
  let ftsa = Ftsa.schedule ~seed inst ~eps in
  let mc = Mc_ftsa.schedule ~seed inst ~eps in
  List.iter
    (fun (algo, s) ->
      check (algo ^ ": Validate.check") (fun () -> validated s);
      check (algo ^ ": flat Event_sim = reference") (fun () -> engines_agree s);
      check (algo ^ ": serialize round trip") (fun () -> round_trips s);
      check (algo ^ ": codec = reference codec") (fun () -> codecs_agree s);
      check
        (Printf.sprintf "%s: flat Crash_exec = reference, %d subsets" algo
           replay_subsets)
        (fun () -> replays_agree s))
    [ ("ftsa", ftsa); ("mc-ftsa", mc) ];
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

module Schedule = Ftsched_schedule.Schedule
module Instance = Ftsched_model.Instance
module Rng = Ftsched_util.Rng

type stats = {
  best : float;
  worst : float;
  worst_scenario : Scenario.t;
  mean : float;
}

type report = {
  scenarios : int;
  defeated : int;
  sampled : bool;
  stats : stats option;
}

let analyze ?policy ?(sample_limit = 200_000) ?(samples = 20_000) ?(seed = 0)
    ?jobs s ~count =
  let m = Instance.n_procs (Schedule.instance s) in
  if count < 0 || count > m then invalid_arg "Worst_case.analyze: count";
  if sample_limit < 1 then invalid_arg "Worst_case.analyze: sample_limit";
  if samples < 1 then invalid_arg "Worst_case.analyze: samples";
  let scenario_list, sampled =
    if Scenario.n_of_size ~m ~count <= sample_limit then
      (Scenario.all_of_size ~m ~count, false)
    else begin
      (* Too many subsets to enumerate: fall back to seeded uniform
         sampling (with replacement, so a scenario can repeat).  The
         scenario list is drawn sequentially from one seeded stream —
         only the replays below fan out — so it is independent of the
         worker count. *)
      let rng = Rng.create ~seed in
      (List.init samples (fun _ -> Scenario.random rng ~m ~count), true)
    end
  in
  let best = ref infinity
  and worst = ref neg_infinity
  and worst_scenario = ref Scenario.none
  and total = ref 0.
  and delivered = ref 0
  and defeated = ref 0
  and scenarios = ref 0 in
  (* Replays fan out over the pool; the reduction below walks the
     outcomes in scenario order, so the accumulated stats (including the
     float sum behind [mean] and the first-worst scenario) are
     bit-identical to the sequential route. *)
  let outcomes =
    Ftsched_par.Par.parallel_map ?jobs
      (fun sc -> (sc, (Crash_exec.run ?policy s sc).Crash_exec.latency))
      scenario_list
  in
  List.iter
    (fun (sc, latency) ->
      incr scenarios;
      match latency with
      | None -> incr defeated
      | Some l ->
          incr delivered;
          total := !total +. l;
          if l < !best then best := l;
          if l > !worst then begin
            worst := l;
            worst_scenario := sc
          end)
    outcomes;
  let stats =
    if !delivered = 0 then None
    else
      Some
        {
          best = !best;
          worst = !worst;
          worst_scenario = !worst_scenario;
          mean = !total /. float_of_int !delivered;
        }
  in
  { scenarios = !scenarios; defeated = !defeated; sampled; stats }

let first_defeat ?policy s ~count =
  let m = Instance.n_procs (Schedule.instance s) in
  List.find_opt
    (fun sc -> not (Crash_exec.survives ?policy s sc))
    (Scenario.all_of_size ~m ~count)

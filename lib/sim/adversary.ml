module Schedule = Ftsched_schedule.Schedule
module Instance = Ftsched_model.Instance
module Metrics = Ftsched_schedule.Metrics
module Rng = Ftsched_util.Rng
module Par = Ftsched_par.Par

type outcome = Defeated | Latency of float

type witness = {
  deaths : Scenario.timed list;
  dropped_links : (int * int) list;
}

type verdict = Certified | Empirical

type report = {
  verdict : verdict;
  worst : outcome;
  witness : witness;
  untimed_worst : outcome;
  evaluations : int;
}

(* Is [a] strictly worse (for the schedule) than [b]?  Defeat dominates
   any finite latency. *)
let worse a b =
  match (a, b) with
  | Defeated, Defeated -> false
  | Defeated, Latency _ -> true
  | Latency _, Defeated -> false
  | Latency x, Latency y -> x > y

let outcome_of (r : Event_sim.result) =
  match r.Event_sim.latency with None -> Defeated | Some l -> Latency l

let pp_outcome ppf = function
  | Defeated -> Format.fprintf ppf "defeated"
  | Latency l -> Format.fprintf ppf "latency %.3f" l

let pp_witness ppf w =
  Format.fprintf ppf "deaths{%s}"
    (String.concat ","
       (List.map
          (fun { Scenario.proc; at } -> Format.sprintf "%d@%g" proc at)
          w.deaths));
  if w.dropped_links <> [] then
    Format.fprintf ppf " links{%s}"
      (String.concat ","
         (List.map (fun (s, d) -> Format.sprintf "%d->%d" s d) w.dropped_links))

let faults_with_drops (base : Scenario.comm_faults) links =
  match links with
  | [] -> base
  | _ ->
      {
        base with
        Scenario.outages =
          List.map (fun (src, dst) -> Scenario.blackout ~src ~dst) links
          @ base.Scenario.outages;
      }

let replay ?network ?(faults = Scenario.reliable) s w =
  let m = Instance.n_procs (Schedule.instance s) in
  let fail_times = Array.make m infinity in
  List.iter
    (fun { Scenario.proc; at } ->
      if proc < 0 || proc >= m then invalid_arg "Adversary.replay: processor";
      fail_times.(proc) <- Float.min fail_times.(proc) at)
    w.deaths;
  List.iter
    (fun (src, dst) ->
      if src < 0 || src >= m || dst < 0 || dst >= m then
        invalid_arg "Adversary.replay: link")
    w.dropped_links;
  Event_sim.run ?network ~faults:(faults_with_drops faults w.dropped_links) s
    ~fail_times

(* Candidate death instants per processor: 0 (the untimed adversary) plus
   the midpoint of every replica interval the reference run completes on
   that processor — killing a processor mid-replica maximally wastes the
   work invested in it.  Capped by even striding so pathological
   schedules cannot blow the search up. *)
let candidate_times ?network ~faults ~max_per_proc s m =
  let ff =
    Event_sim.run ?network ~faults s ~fail_times:(Array.make m infinity)
  in
  let per_proc = Array.make m [] in
  Array.iteri
    (fun task row ->
      Array.iteri
        (fun k o ->
          match o with
          | Event_sim.Completed { start; finish } ->
              let p = (Schedule.replica s task k).Schedule.proc in
              per_proc.(p) <- (0.5 *. (start +. finish)) :: per_proc.(p)
          | Event_sim.Lost -> ())
        row)
    ff.Event_sim.outcomes;
  ( Array.map
      (fun times ->
        let sorted = List.sort_uniq compare times in
        let n = List.length sorted in
        let kept =
          if n <= max_per_proc then sorted
          else
            let stride = (n + max_per_proc - 1) / max_per_proc in
            List.filteri (fun i _ -> i mod stride = 0) sorted
        in
        0. :: kept)
      per_proc,
    outcome_of ff )

let search ?network ?(faults = Scenario.reliable) ?(links = 0) ?(restarts = 6)
    ?(seed = 0) ?(exhaustive_limit = 2_000) ?(max_link_candidates = 12) ?jobs
    s ~count =
  let m = Instance.n_procs (Schedule.instance s) in
  if count < 0 || count > m then invalid_arg "Adversary.search: count";
  if links < 0 then invalid_arg "Adversary.search: links";
  let evaluations = ref 0 in
  (* [eval_pure] is safe to fan out (replay is a pure function of the
     witness); [eval] additionally books the evaluation, for the
     sequential search phases. *)
  let eval_pure deaths dropped_links =
    outcome_of (replay ?network ~faults s { deaths; dropped_links })
  in
  let eval deaths dropped_links =
    incr evaluations;
    eval_pure deaths dropped_links
  in
  let cand_times, fault_free_outcome =
    candidate_times ?network ~faults ~max_per_proc:16 s m
  in
  let rng = Rng.create ~seed in
  (* Running maximum: outcome, deaths, dropped links. *)
  let best = ref (fault_free_outcome, [], []) in
  (* Phase 1 — untimed sweep: every count-subset dying at t = 0 when the
     subset space is small enough, a random sample otherwise.  The
     exhaustive sweep covers exactly the scenario set Worst_case.analyze
     enumerates, so the final answer is certified no better than the
     untimed worst. *)
  let exhaustive = Scenario.n_of_size ~m ~count <= exhaustive_limit in
  let subsets =
    if exhaustive then
      List.map
        (fun sc -> Array.to_list sc.Scenario.failed)
        (Scenario.all_of_size ~m ~count)
    else
      List.init (Int.max restarts 16) (fun _ ->
          Array.to_list (Scenario.random rng ~m ~count).Scenario.failed)
  in
  let deaths_at_zero procs =
    List.map (fun proc -> { Scenario.proc; at = 0. }) procs
  in
  (* The sweep's candidate evaluations are independent full simulations —
     the compute-bound heart of the search — so they fan out over the
     pool; the booked count matches the sequential route exactly. *)
  let ranked =
    Par.parallel_map ?jobs
      (fun procs -> (eval_pure (deaths_at_zero procs) [], procs))
      subsets
  in
  evaluations := !evaluations + List.length subsets;
  incr evaluations;
  (* fault-free reference counted too *)
  let untimed_worst =
    List.fold_left
      (fun acc (o, _) -> if worse o acc then o else acc)
      fault_free_outcome ranked
  in
  List.iter
    (fun (o, procs) ->
      let (bo, _, _) = !best in
      if worse o bo then best := (o, deaths_at_zero procs, []))
    ranked;
  (* Phase 2 — timed refinement: greedy coordinate ascent over the death
     instants of the most damaging subsets, scanning each processor's
     candidate instants while the others stay fixed. *)
  let refine deaths0 =
    let deaths = Array.of_list deaths0 in
    let current = ref (eval deaths0 []) in
    let improved = ref true in
    let passes = ref 0 in
    while !improved && !passes < 2 && !current <> Defeated do
      improved := false;
      incr passes;
      Array.iteri
        (fun i { Scenario.proc; at } ->
          List.iter
            (fun t ->
              if t <> at && !current <> Defeated then begin
                deaths.(i) <- { Scenario.proc; at = t };
                let o = eval (Array.to_list deaths) [] in
                if worse o !current then begin
                  current := o;
                  improved := true
                end
                else deaths.(i) <- { Scenario.proc; at }
              end)
            cand_times.(proc))
        deaths;
      ()
    done;
    let (bo, _, _) = !best in
    if worse !current bo then best := (!current, Array.to_list deaths, [])
  in
  let top_subsets =
    let sorted =
      List.stable_sort
        (fun (o1, _) (o2, _) ->
          if worse o1 o2 then -1 else if worse o2 o1 then 1 else 0)
        ranked
    in
    List.filteri (fun i _ -> i < 3) sorted |> List.map snd
  in
  if count > 0 then begin
    List.iter (fun procs -> refine (deaths_at_zero procs)) top_subsets;
    (* Randomized restarts: fresh subsets with random death instants,
       hill-climbed the same way. *)
    let horizon =
      match fault_free_outcome with Latency l -> l | Defeated -> 1.
    in
    for _ = 1 to restarts do
      let (bo, _, _) = !best in
      if bo <> Defeated then
        let procs =
          Array.to_list (Scenario.random rng ~m ~count).Scenario.failed
        in
        refine
          (List.map
             (fun proc -> { Scenario.proc; at = Rng.float_in rng 0. horizon })
             procs)
    done
  end;
  (* Phase 3 — link drops: greedily add the blackout that hurts the
     current best scenario the most, up to [links] drops. *)
  if links > 0 then begin
    let candidates =
      List.filteri
        (fun i _ -> i < max_link_candidates)
        (Metrics.inter_processor_links s)
      |> List.map fst
    in
    for _ = 1 to links do
      let (bo, bdeaths, bdropped) = !best in
      if bo <> Defeated then begin
        (* Evaluate every remaining candidate drop in parallel, then pick
           with the same first-strictly-worst fold as the sequential
           route. *)
        let remaining =
          List.filter (fun link -> not (List.mem link bdropped)) candidates
        in
        let outcomes =
          Par.parallel_map ?jobs
            (fun link -> (link, eval_pure bdeaths (link :: bdropped)))
            remaining
        in
        evaluations := !evaluations + List.length remaining;
        let step =
          List.fold_left
            (fun acc (link, o) ->
              match acc with
              | Some (ao, _) when not (worse o ao) -> acc
              | _ -> if worse o bo then Some (o, link) else acc)
            None outcomes
        in
        match step with
        | Some (o, link) -> best := (o, bdeaths, link :: bdropped)
        | None -> ()
      end
    done
  end;
  let worst, deaths, dropped_links = !best in
  {
    verdict = (if exhaustive then Certified else Empirical);
    worst;
    witness = { deaths; dropped_links };
    untimed_worst;
    evaluations = !evaluations;
  }

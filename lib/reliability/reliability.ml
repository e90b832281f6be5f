module Schedule = Ftsched_schedule.Schedule
module Instance = Ftsched_model.Instance
module Crash_exec = Ftsched_sim.Crash_exec
module Event_sim = Ftsched_sim.Event_sim
module Scenario = Ftsched_sim.Scenario
module Rng = Ftsched_util.Rng

let log_choose m k =
  let rec lf acc n = if n <= 1 then acc else lf (acc +. log (float_of_int n)) (n - 1) in
  lf 0. m -. lf 0. k -. lf 0. (m - k)

let binomial_bound s ~p_fail =
  if p_fail < 0. || p_fail > 1. then invalid_arg "Reliability.binomial_bound";
  let m = Instance.n_procs (Schedule.instance s) in
  let eps = Schedule.eps s in
  if p_fail = 0. then 1.
  else if p_fail = 1. then (if eps >= m then 1. else 0.)
  else begin
    let total = ref 0. in
    for k = 0 to min eps m do
      total :=
        !total
        +. exp
             (log_choose m k
             +. (float_of_int k *. log p_fail)
             +. (float_of_int (m - k) *. log (1. -. p_fail)))
    done;
    Float.min 1. !total
  end

let survives s policy failed =
  Crash_exec.survives ~policy s { Scenario.failed = Array.of_list failed }

let exact s policy ~p_fail =
  let m = Instance.n_procs (Schedule.instance s) in
  if m > 16 then invalid_arg "Reliability.exact: platform too large (m > 16)";
  if p_fail < 0. || p_fail > 1. then invalid_arg "Reliability.exact";
  let total = ref 0. in
  for mask = 0 to (1 lsl m) - 1 do
    let failed =
      List.filter (fun p -> mask land (1 lsl p) <> 0) (List.init m Fun.id)
    in
    let k = List.length failed in
    if survives s policy failed then
      total :=
        !total
        +. (p_fail ** float_of_int k)
           *. ((1. -. p_fail) ** float_of_int (m - k))
  done;
  !total

type estimate = {
  mean : float;
  stderr : float;
  trials : int;
}

let bernoulli_estimate successes trials =
  let n = float_of_int trials in
  let mean = float_of_int successes /. n in
  (* standard error of a Bernoulli proportion *)
  { mean; stderr = sqrt (mean *. (1. -. mean) /. n); trials }

let monte_carlo rng s policy ~p_fail ~trials =
  if trials <= 0 then invalid_arg "Reliability.monte_carlo: trials";
  let m = Instance.n_procs (Schedule.instance s) in
  let successes = ref 0 in
  for _ = 1 to trials do
    (* one draw per processor, in processor order *)
    let dead = Array.init m (fun _ -> Rng.bernoulli rng p_fail) in
    if survives s policy (List.filter (Array.get dead) (List.init m Fun.id))
    then incr successes
  done;
  bernoulli_estimate !successes trials

let mission rng s ?network ?rates ~rate ~trials () =
  if trials <= 0 || rate < 0. then invalid_arg "Reliability.mission";
  let m = Instance.n_procs (Schedule.instance s) in
  (match rates with
  | Some r when Array.length r <> m || Array.exists (fun x -> x < 0.) r ->
      invalid_arg "Reliability.mission: rates"
  | _ -> ());
  let rate_of p = match rates with Some r -> r.(p) | None -> rate in
  let successes = ref 0 in
  let latency_sum = ref 0. in
  let rates = Array.init m rate_of in
  for _ = 1 to trials do
    let fail_times = Scenario.exponential rng ~rates in
    match (Event_sim.run ?network s ~fail_times).Event_sim.latency with
    | Some l ->
        incr successes;
        latency_sum := !latency_sum +. l
    | None -> ()
  done;
  let est = bernoulli_estimate !successes trials in
  let mean_latency =
    if !successes = 0 then None
    else Some (!latency_sum /. float_of_int !successes)
  in
  (est, mean_latency)

module Instance = Ftsched_model.Instance
module Deadline = Ftsched_model.Deadline
module Schedule = Ftsched_schedule.Schedule
module Driver = Ftsched_kernel.Driver

type bound = Lower_bound | Upper_bound

type infeasible = Driver.deadline_failure = {
  task : int;
  deadline : float;
  finish : float;
}

let measure bound s =
  match bound with
  | Lower_bound -> Schedule.latency_lower_bound s
  | Upper_bound -> Schedule.latency_upper_bound s

let max_supported_failures ?(seed = 0) ?(bound = Upper_bound) inst ~latency =
  let m = Instance.n_procs inst in
  let fits eps =
    let s = Ftsa.schedule ~seed inst ~eps in
    if measure bound s <= latency then Some s else None
  in
  (* Binary search for the largest feasible ε, seeded by the ε = 0 probe so
     that infeasibility is reported early. *)
  match fits 0 with
  | None -> None
  | Some s0 ->
      let best = ref (0, s0) in
      let lo = ref 0 and hi = ref (m - 1) in
      while !lo < !hi do
        let mid = !lo + ((!hi - !lo + 1) / 2) in
        match fits mid with
        | Some s ->
            best := (mid, s);
            lo := mid
        | None -> hi := mid - 1
      done;
      Some !best

let latency_profile ?(seed = 0) inst ~max_eps =
  let m = Instance.n_procs inst in
  let top = min max_eps (m - 1) in
  List.init (top + 1) (fun eps ->
      let s = Ftsa.schedule ~seed inst ~eps in
      (eps, Schedule.latency_lower_bound s, Schedule.latency_upper_bound s))

let with_deadlines ?seed inst ~eps ~latency =
  let deadlines = Deadline.compute inst ~eps ~latency in
  Driver.run ?seed ~instance:inst
    ~policy:
      (Ftsa_policy.policy ~instance:inst ~eps ~mode:Ftsa_policy.All_to_all_comm)
    ~deadlines ()

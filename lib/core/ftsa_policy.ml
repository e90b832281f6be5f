module Instance = Ftsched_model.Instance
module Levels = Ftsched_model.Levels
module Driver = Ftsched_kernel.Driver
module Edge_select = Ftsched_kernel.Edge_select

type edge_strategy = Greedy_edges | Bottleneck_edges | Redundant_edges of int
type mode = All_to_all_comm | Min_comm of edge_strategy

(* The FTSA policy over the kernel driver: criticalness priority
   [tℓ + bℓ] with random tie-breaking, equation-(1) selection of the
   [ε+1] earliest-finishing processors, evaluated exactly only where a
   lower bound leaves them in reach, and the mode's commit rule. *)
let policy ~instance ~eps ~mode =
  let bl = Levels.bottom_levels instance in
  let commit, selected_comm =
    match mode with
    | All_to_all_comm -> (Driver.commit_straight, false)
    | Min_comm strategy ->
        (* The one-to-one core must use the internal edge (the paper's
           rule), but the redundant extension may additionally fan a
           colocated source out to the other destinations. *)
        let select, fan_out =
          match strategy with
          | Greedy_edges -> (Edge_select.greedy, false)
          | Bottleneck_edges -> (Edge_select.bottleneck, false)
          | Redundant_edges senders -> (Edge_select.redundant ~senders, senders > 1)
        in
        (Driver.commit_min_comm ~select ~fan_out, true)
  in
  {
    Driver.replicas = eps + 1;
    discipline =
      Driver.Priority
        { key = (fun st t -> Driver.top_level st t +. bl.(t)); tie = Driver.Rng_tie };
    prepare = (fun _ _ -> ());
    evaluate = Driver.eval_pruned;
    choose = (fun st _ -> Driver.best_by_finish st ~k:(eps + 1));
    commit;
    after_commit = Driver.no_after_commit;
    insertion = false;
    selected_comm;
  }

let run ?seed ?release ?trace ?workspace ~instance policy =
  let eps = policy.Driver.replicas - 1 in
  if eps < 0 || eps >= Instance.n_procs instance then
    invalid_arg "Ftsa_policy.run: need 0 <= eps < number of processors";
  Driver.schedule ?seed ~instance ~policy ?release ?trace ?workspace ()

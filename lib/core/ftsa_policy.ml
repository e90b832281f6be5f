module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Levels = Ftsched_model.Levels
module Driver = Ftsched_kernel.Driver
module Edge_select = Ftsched_kernel.Edge_select

type edge_strategy = Greedy_edges | Bottleneck_edges | Redundant_edges of int
type mode = All_to_all_comm | Min_comm of edge_strategy

(* Commit for MC-FTSA: per incoming DAG edge, build the bipartite replica
   graph of §4.2 in the workspace's candidate set, select a robust
   one-to-one edge set, and re-time every replica of [t] against its
   single retained sender per input.  Candidates are added in the order
   the selectors fall back on for ties: left replicas from last to first,
   each one's free candidates from the last right replica to the first,
   then its forced one. *)
let commit_min_comm strategy (st : Driver.state) t =
  let pl = Instance.platform st.Driver.inst in
  let exec = Instance.exec_row st.Driver.inst t in
  let ready_opt = st.Driver.ready_opt in
  let k = st.Driver.replicas in
  let chosen = st.Driver.chosen in
  let cands = st.Driver.edges in
  (* The one-to-one core must use the internal edge (the paper's rule),
     but the redundant extension may additionally fan a colocated source
     out to the other destinations. *)
  let fan_out_colocated =
    match strategy with
    | Redundant_edges senders -> senders > 1
    | Greedy_edges | Bottleneck_edges -> false
  in
  (* Data arrival per replica of t, from the selected senders only: the
     optimistic bound chains optimistic sender finishes, the pessimistic
     bound pessimistic ones.  The input bounds reuse [in_opt]/[in_pess]
     and the per-edge arrivals [tmp_opt]/[tmp_pess]: evaluation is over. *)
  let input_opt = st.Driver.in_opt and input_pess = st.Driver.in_pess in
  let arr_opt = st.Driver.tmp_opt and arr_pess = st.Driver.tmp_pess in
  Array.fill input_opt 0 k 0.;
  Array.fill input_pess 0 k 0.;
  for j = st.Driver.pred_off.(t) to st.Driver.pred_off.(t + 1) - 1 do
    let e = st.Driver.pred_edge.(j) and vol = st.Driver.pred_vol.(j) in
    let lefts = Driver.replicas_of st st.Driver.pred_task.(j) in
    Edge_select.reset cands ~k;
    let weight = Edge_select.weights cands in
    for l = k - 1 downto 0 do
      let c = lefts.(l) in
      let colocated = st.Driver.replica_on.(c.Driver.proc) in
      let row = Platform.delay_row pl c.Driver.proc in
      if colocated < 0 || fan_out_colocated then
        for r = k - 1 downto 0 do
          if r <> colocated then begin
            let p = chosen.(r) in
            weight.((l * k) + r) <-
              Float.max (c.Driver.finish_opt +. (vol *. row.(p))) ready_opt.(p)
              +. exec.(p);
            Edge_select.add cands ~left:l ~right:r ~forced:false
          end
        done;
      if colocated >= 0 then begin
        let p = chosen.(colocated) in
        weight.((l * k) + colocated) <-
          Float.max (c.Driver.finish_opt +. (vol *. row.(p))) ready_opt.(p)
          +. exec.(p);
        Edge_select.add cands ~left:l ~right:colocated ~forced:true
      end
    done;
    (match strategy with
    | Greedy_edges -> Edge_select.greedy cands
    | Bottleneck_edges -> Edge_select.bottleneck cands
    | Redundant_edges senders -> Edge_select.redundant cands ~senders);
    (* Per destination replica and per edge: the optimistic bound is the
       first retained copy to arrive, the pessimistic one the last — with
       a single sender per replica (pure MC) the two coincide. *)
    Array.fill arr_opt 0 k infinity;
    Array.fill arr_pess 0 k 0.;
    let n_sel = Edge_select.selected cands in
    for i = 0 to n_sel - 1 do
      let c = lefts.(Edge_select.selected_left cands i)
      and r = Edge_select.selected_right cands i in
      let w = vol *. (Platform.delay_row pl c.Driver.proc).(chosen.(r)) in
      let a_opt = c.Driver.finish_opt +. w in
      let a_pess = c.Driver.finish_pess +. w in
      if a_opt < arr_opt.(r) then arr_opt.(r) <- a_opt;
      if a_pess > arr_pess.(r) then arr_pess.(r) <- a_pess
    done;
    st.Driver.selected.(e) <- Edge_select.selected_pairs cands;
    for r = 0 to k - 1 do
      if arr_opt.(r) < infinity && arr_opt.(r) > input_opt.(r) then
        input_opt.(r) <- arr_opt.(r);
      if arr_pess.(r) > input_pess.(r) then input_pess.(r) <- arr_pess.(r)
    done
  done;
  Array.init k (fun r ->
      let p = chosen.(r) in
      let e = exec.(p) in
      let start = Float.max input_opt.(r) ready_opt.(p) in
      (* A single sender per input: the optimistic/pessimistic gap stems
         only from the senders' own gaps and the processor ready times. *)
      let start_pess = Float.max input_pess.(r) st.Driver.ready_pess.(p) in
      {
        Driver.proc = p;
        start_opt = start;
        finish_opt = start +. e;
        start_pess;
        finish_pess = start_pess +. e;
      })

(* The FTSA policy over the kernel driver: criticalness priority
   [tℓ + bℓ] with random tie-breaking, equation-(1) selection of the
   [ε+1] earliest-finishing processors, and the mode's commit rule. *)
let policy ~instance ~eps ~mode =
  let bl = Levels.bottom_levels instance in
  let name, commit, selected_comm =
    match mode with
    | All_to_all_comm -> ("ftsa", Driver.commit_straight, false)
    | Min_comm strategy -> ("mc-ftsa", commit_min_comm strategy, true)
  in
  {
    Driver.name;
    replicas = eps + 1;
    discipline =
      Driver.Priority
        { key = (fun st t -> Driver.top_level st t +. bl.(t)); tie = Driver.Rng_tie };
    prepare = Driver.prepare_inputs;
    evaluate = Driver.eval_inputs;
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

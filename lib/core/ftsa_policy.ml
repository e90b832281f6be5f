module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Levels = Ftsched_model.Levels
module Driver = Ftsched_kernel.Driver
module Proc_state = Ftsched_kernel.Proc_state

type edge_strategy = Greedy_edges | Bottleneck_edges | Redundant_edges of int
type mode = All_to_all_comm | Min_comm of edge_strategy

(* Commit for MC-FTSA: per incoming DAG edge, build the bipartite replica
   graph of §4.2, select a robust one-to-one edge set, and re-time every
   replica of [t] against its single retained sender per input. *)
let commit_min_comm strategy ~eps (st : Driver.state) t chosen =
  let g = Instance.dag st.Driver.inst in
  let pl = Instance.platform st.Driver.inst in
  let exec t p = Instance.exec st.Driver.inst t p in
  let ready_opt p = Proc_state.ready_opt st.Driver.timeline p in
  let k = eps + 1 in
  let procs = Array.map (fun ev -> ev.Driver.e_proc) chosen in
  (* replica index of t hosted on processor p, if any *)
  let right_on_proc p =
    let found = ref (-1) in
    Array.iteri (fun i q -> if q = p then found := i) procs;
    !found
  in
  (* Data arrival per replica of t, from the selected senders only: the
     optimistic bound chains optimistic sender finishes, the pessimistic
     bound pessimistic ones. *)
  let input_opt = Array.make k 0. in
  let input_pess = Array.make k 0. in
  Dag.iter_preds g t (fun e src vol ->
      let lefts = Driver.replicas_of st src in
      let edges = ref [] in
      for l = 0 to k - 1 do
        let lp = lefts.(l).Driver.proc in
        let colocated = right_on_proc lp in
        let weight r =
          let p = procs.(r) in
          let w = vol *. Platform.delay pl lp p in
          Float.max (lefts.(l).Driver.finish_opt +. w) (ready_opt p)
          +. exec t p
        in
        if colocated >= 0 then begin
          edges :=
            { Edge_select.left = l; right = colocated; weight = weight colocated;
              forced = true }
            :: !edges;
          (* The one-to-one core must use the internal edge (the paper's
             rule), but the redundant extension may additionally fan this
             source out to the other destinations. *)
          match strategy with
          | Redundant_edges senders when senders > 1 ->
              for r = 0 to k - 1 do
                if r <> colocated then
                  edges :=
                    { Edge_select.left = l; right = r; weight = weight r;
                      forced = false }
                    :: !edges
              done
          | Greedy_edges | Bottleneck_edges | Redundant_edges _ -> ()
        end
        else
          for r = 0 to k - 1 do
            edges :=
              { Edge_select.left = l; right = r; weight = weight r;
                forced = false }
              :: !edges
          done
      done;
      let pairs =
        match strategy with
        | Greedy_edges -> Edge_select.greedy ~eps !edges
        | Bottleneck_edges -> Edge_select.bottleneck ~eps !edges
        | Redundant_edges senders -> Edge_select.redundant ~eps ~senders !edges
      in
      st.Driver.selected.(e) <- pairs;
      (* Per destination replica and per edge: the optimistic bound is the
         first retained copy to arrive, the pessimistic one the last —
         with a single sender per replica (pure MC) the two coincide. *)
      let arr_opt = Array.make k infinity in
      let arr_pess = Array.make k 0. in
      List.iter
        (fun (l, r) ->
          let lp = lefts.(l).Driver.proc in
          let w = vol *. Platform.delay pl lp procs.(r) in
          let a_opt = lefts.(l).Driver.finish_opt +. w in
          let a_pess = lefts.(l).Driver.finish_pess +. w in
          if a_opt < arr_opt.(r) then arr_opt.(r) <- a_opt;
          if a_pess > arr_pess.(r) then arr_pess.(r) <- a_pess)
        pairs;
      for r = 0 to k - 1 do
        if arr_opt.(r) < infinity && arr_opt.(r) > input_opt.(r) then
          input_opt.(r) <- arr_opt.(r);
        if arr_pess.(r) > input_pess.(r) then input_pess.(r) <- arr_pess.(r)
      done);
  Array.mapi
    (fun r ev ->
      let p = ev.Driver.e_proc in
      let e = exec t p in
      let start = Float.max input_opt.(r) (ready_opt p) in
      (* A single sender per input: the optimistic/pessimistic gap stems
         only from the senders' own gaps and the processor ready times. *)
      let start_pess =
        Float.max input_pess.(r) (Proc_state.ready_pess st.Driver.timeline p)
      in
      {
        Driver.proc = p;
        start_opt = start;
        finish_opt = start +. e;
        start_pess;
        finish_pess = start_pess +. e;
      })
    chosen

(* The FTSA policy over the kernel driver: criticalness priority
   [tℓ + bℓ] with random tie-breaking, equation-(1) selection of the
   [ε+1] earliest-finishing processors, and the mode's commit rule. *)
let policy ~instance ~eps ~mode =
  let bl = Levels.bottom_levels instance in
  let name, commit, selected_comm =
    match mode with
    | All_to_all_comm -> ("ftsa", Driver.commit_straight, false)
    | Min_comm strategy -> ("mc-ftsa", commit_min_comm strategy ~eps, true)
  in
  {
    Driver.name;
    replicas = eps + 1;
    discipline =
      Driver.Priority
        { key = (fun st t -> Driver.top_level st t +. bl.(t)); tie = Driver.Rng_tie };
    prepare = Driver.prepare_inputs;
    evaluate = Driver.eval_inputs;
    choose = (fun _ _ evals -> Driver.best_by_finish evals ~k:(eps + 1));
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

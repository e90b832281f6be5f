module Instance = Ftsched_model.Instance
module Levels = Ftsched_model.Levels
module Proc_state = Ftsched_kernel.Proc_state
module Rng = Ftsched_util.Rng
module Driver = Ftsched_kernel.Driver

let schedule ?seed ?trace inst ~npf =
  let m = Instance.n_procs inst in
  if npf < 0 || npf >= m then
    invalid_arg "Ftbar.schedule: need 0 <= npf < number of processors";
  (* s(ti): static latest-start level measured from the exit tasks — the
     average-cost bottom level (includes ti's own execution). *)
  let s_level = Levels.bottom_levels inst in
  (* R(n-1): current schedule length, updated as replicas commit. *)
  let schedule_length = ref 0. in
  (* The urgency rule selects placements before the driver commits; hand
     the chosen rows over through [pending]. *)
  let pending = ref [||] in
  (* Evaluate the pressure of every free task on every processor; keep
     each task's Npf+1 best placements.  The most urgent task is the one
     whose best placements still carry the largest pressure. *)
  let urgency (st : Driver.state) ~free =
    let best_of t =
      Driver.prepare_inputs st t;
      let cand =
        Array.init m (fun p ->
            let e = Instance.exec inst t p in
            let s_opt =
              Float.max st.Driver.in_opt.(p)
                (Proc_state.ready_opt st.Driver.timeline p)
            in
            let s_pess =
              Float.max st.Driver.in_pess.(p)
                (Proc_state.ready_pess st.Driver.timeline p)
            in
            let sigma = s_opt +. s_level.(t) -. !schedule_length in
            (sigma, p, (s_opt, s_opt +. e, s_pess, s_pess +. e)))
      in
      Array.sort
        (fun (sa, pa, _) (sb, pb, _) ->
          match compare sa sb with 0 -> compare pa pb | c -> c)
        cand;
      let chosen = Array.sub cand 0 (npf + 1) in
      let urgency =
        Array.fold_left (fun acc (s, _, _) -> Float.max acc s) neg_infinity
          chosen
      in
      (urgency, chosen)
    in
    (* [free] arrives newest-first, the order the old list-based driver
       exposed — evaluating in array order keeps the RNG tie-break pool
       identical. *)
    let evaluated = Array.to_list (Array.map (fun t -> (t, best_of t)) free) in
    let t, (u, chosen) =
      (* Most urgent pair: maximum pressure; ties broken randomly as in
         the original. *)
      let best = ref [] and best_u = ref neg_infinity in
      List.iter
        (fun ((_, (u, _)) as entry) ->
          if u > !best_u then begin
            best_u := u;
            best := [ entry ]
          end
          else if u = !best_u then best := entry :: !best)
        evaluated;
      Rng.pick st.Driver.rng (Array.of_list !best)
    in
    pending :=
      Array.map
        (fun (_, p, (s_opt, f_opt, s_pess, f_pess)) ->
          {
            Driver.proc = p;
            start_opt = s_opt;
            finish_opt = f_opt;
            start_pess = s_pess;
            finish_pess = f_pess;
          })
        chosen;
    let evals =
      Array.map
        (fun (_, p, (_, f_opt, _, f_pess)) ->
          { Driver.e_proc = p; e_finish_opt = f_opt; e_finish_pess = f_pess })
        chosen
    in
    (t, u, evals)
  in
  Driver.schedule ?seed ~instance:inst ?trace
    ~policy:
      {
        Driver.name = "ftbar";
        replicas = npf + 1;
        discipline = Driver.Urgency urgency;
        prepare = Driver.prepare_inputs;
        evaluate = Driver.eval_inputs;
        choose = (fun _ _ evals -> evals);
        commit = (fun _ _ _ -> !pending);
        after_commit =
          (fun _ _ committed ->
            Array.iter
              (fun (c : Driver.committed) ->
                if c.Driver.finish_opt > !schedule_length then
                  schedule_length := c.Driver.finish_opt)
              committed);
        insertion = false;
        selected_comm = false;
      }
    ()

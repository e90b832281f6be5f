module Instance = Ftsched_model.Instance
module Levels = Ftsched_model.Levels
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
  (* this call's scratch: one task's pressures, its Npf+1 best processors *)
  let sigma = Array.make m 0. and picked = Array.make (npf + 1) 0 in
  (* Evaluate the pressure of every free task on every processor; keep
     each task's Npf+1 best placements.  The most urgent task is the one
     whose best placements still carry the largest pressure. *)
  let urgency (st : Driver.state) ~free =
    let best_of t =
      Driver.prepare_inputs st t;
      Driver.count_evals st m;
      let start_opt p = Float.max st.Driver.in_opt.(p) st.Driver.ready_opt.(p) in
      for p = 0 to m - 1 do
        sigma.(p) <- start_opt p +. s_level.(t) -. !schedule_length
      done;
      Driver.best_by_key sigma ~n:m ~k:(npf + 1) picked;
      let urgency =
        Array.fold_left (fun acc p -> Float.max acc sigma.(p)) neg_infinity picked
      in
      let chosen =
        Array.map
          (fun p ->
            let e = Instance.exec inst t p in
            let s_opt = start_opt p in
            let s_pess =
              Float.max st.Driver.in_pess.(p) st.Driver.ready_pess.(p)
            in
            {
              Driver.proc = p;
              start_opt = s_opt;
              finish_opt = s_opt +. e;
              start_pess = s_pess;
              finish_pess = s_pess +. e;
            })
          picked
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
    pending := chosen;
    Array.iteri
      (fun i (c : Driver.committed) ->
        st.Driver.chosen.(i) <- c.Driver.proc;
        st.Driver.fin_opt.(c.Driver.proc) <- c.Driver.finish_opt;
        st.Driver.fin_pess.(c.Driver.proc) <- c.Driver.finish_pess)
      chosen;
    (t, u)
  in
  Driver.schedule ?seed ~instance:inst ?trace
    ~policy:
      {
        Driver.name = "ftbar";
        replicas = npf + 1;
        discipline = Driver.Urgency urgency;
        prepare = Driver.prepare_inputs;
        evaluate = Driver.eval_inputs;
        choose = (fun _ _ -> ());
        commit = (fun _ _ -> !pending);
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

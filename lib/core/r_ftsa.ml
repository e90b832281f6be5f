module Instance = Ftsched_model.Instance
module Driver = Ftsched_kernel.Driver

let schedule ?seed ?(alpha = 0.15) ?trace ~rates inst ~eps =
  let m = Instance.n_procs inst in
  if alpha < 0. then invalid_arg "R_ftsa.schedule: alpha must be >= 0";
  if Array.length rates <> m || Array.exists (fun r -> r < 0.) rates then
    invalid_arg "R_ftsa.schedule: rates";
  (* FTSA's selection, relaxed: among processors finishing within the
     [1 + alpha] slack of the ε+1-th best equation-(1) time, prefer the
     smallest in-window failure probability (rate·E), then finish. *)
  let choose _st t evals =
    let cand = Driver.best_by_finish evals ~k:(Array.length evals) in
    let f_cut = cand.(eps).Driver.e_finish_opt in
    let limit = f_cut *. (1. +. alpha) in
    let admissible =
      Array.to_list cand
      |> List.filter (fun ev -> ev.Driver.e_finish_opt <= limit +. 1e-12)
      |> List.sort (fun a b ->
             let ra = rates.(a.Driver.e_proc) *. Instance.exec inst t a.Driver.e_proc
             and rb = rates.(b.Driver.e_proc) *. Instance.exec inst t b.Driver.e_proc in
             match compare ra rb with
             | 0 -> (
                 match compare a.Driver.e_finish_opt b.Driver.e_finish_opt with
                 | 0 -> compare a.Driver.e_proc b.Driver.e_proc
                 | c -> c)
             | c -> c)
    in
    Array.of_list (List.filteri (fun i _ -> i <= eps) admissible)
  in
  Ftsa_policy.run ?seed ?trace ~instance:inst
    {
      (Ftsa_policy.policy ~instance:inst ~eps ~mode:Ftsa_policy.All_to_all_comm)
      with
      name = "r-ftsa";
      choose;
    }

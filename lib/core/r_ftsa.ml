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
  let choose (st : Driver.state) t =
    let finish p = st.Driver.fin_opt.(p) in
    let cand = Array.make m 0 in
    Driver.best_by_key st.Driver.fin_opt ~n:m ~k:m cand;
    let limit = finish cand.(eps) *. (1. +. alpha) in
    let admissible =
      Array.to_list cand
      |> List.filter (fun p -> finish p <= limit +. 1e-12)
      |> List.sort (fun a b ->
             let ra = rates.(a) *. Instance.exec inst t a
             and rb = rates.(b) *. Instance.exec inst t b in
             match compare ra rb with
             | 0 -> (
                 match compare (finish a) (finish b) with
                 | 0 -> compare a b
                 | c -> c)
             | c -> c)
    in
    List.iteri (fun i p -> if i <= eps then st.Driver.chosen.(i) <- p) admissible
  in
  Ftsa_policy.run ?seed ?trace ~instance:inst
    {
      (Ftsa_policy.policy ~instance:inst ~eps ~mode:Ftsa_policy.All_to_all_comm)
      with
      name = "r-ftsa";
      choose;
    }

module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Driver = Ftsched_kernel.Driver

let procs_of_domain ~domains d =
  let acc = ref [] in
  Array.iteri (fun p dp -> if dp = d then acc := p :: !acc) domains;
  List.rev !acc

let distinct_replica_domains s ~domains =
  let inst = Schedule.instance s in
  let ok = ref true in
  for task = 0 to Instance.n_tasks inst - 1 do
    let ds =
      Array.to_list (Schedule.assigned_procs s task)
      |> List.map (fun p -> domains.(p))
      |> List.sort_uniq compare
    in
    if List.length ds <> Schedule.n_replicas s then ok := false
  done;
  !ok

let schedule ?seed ?trace ~domains inst ~eps =
  let m = Instance.n_procs inst in
  if Array.length domains <> m then
    invalid_arg "Ftsa_domains.schedule: domains size";
  let n_domains =
    List.length (List.sort_uniq compare (Array.to_list domains))
  in
  if eps < 0 || eps >= n_domains then
    invalid_arg "Ftsa_domains.schedule: need 0 <= eps < number of domains";
  (* Greedy by equation-(1) finish time, one processor per failure
     domain. *)
  let choose (st : Driver.state) _t =
    let cand = Array.make m 0 in
    Driver.best_by_key st.Driver.fin_opt ~n:m ~k:m cand;
    let used = Hashtbl.create 8 and picked = ref 0 in
    Array.iter
      (fun p ->
        let d = domains.(p) in
        if !picked <= eps && not (Hashtbl.mem used d) then begin
          Hashtbl.add used d ();
          st.Driver.chosen.(!picked) <- p;
          incr picked
        end)
      cand;
    assert (!picked = eps + 1)
  in
  Ftsa_policy.run ?seed ?trace ~instance:inst
    {
      (Ftsa_policy.policy ~instance:inst ~eps ~mode:Ftsa_policy.All_to_all_comm)
      with
      (* [choose] reads every processor's finish *)
      prepare = Driver.prepare_inputs;
      evaluate = Driver.eval_inputs;
      choose;
    }

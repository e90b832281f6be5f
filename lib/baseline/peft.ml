module Dag = Ftsched_dag.Dag
module Instance = Ftsched_model.Instance
module Driver = Ftsched_kernel.Driver

let oct inst =
  let g = Instance.dag inst in
  let v = Dag.n_tasks g and m = Instance.n_procs inst in
  let table = Array.make_matrix v m 0. in
  let topo = Dag.topological_order g in
  (* reverse topological order: successors are final when visited *)
  for i = v - 1 downto 0 do
    let t = topo.(i) in
    for p = 0 to m - 1 do
      let worst = ref 0. in
      Dag.iter_succs g t (fun _ s vol ->
          let best = ref infinity in
          for q = 0 to m - 1 do
            let comm =
              if q = p then 0. else Instance.avg_comm_time inst ~volume:vol
            in
            let cand = table.(s).(q) +. Instance.exec inst s q +. comm in
            if cand < !best then best := cand
          done;
          if !best > !worst then worst := !best);
      table.(t).(p) <- !worst
    done
  done;
  table

let schedule ?trace inst =
  let v = Instance.n_tasks inst and m = Instance.n_procs inst in
  let table = oct inst in
  let rank =
    Array.init v (fun t -> Array.fold_left ( +. ) 0. table.(t) /. float_of_int m)
  in
  (* Place on the processor minimizing EFT + OCT — earliest finish plus
     predicted tail. *)
  let choose (st : Driver.state) t =
    let fin = st.Driver.fin_opt and oct = table.(t) in
    let best = ref 0 in
    for p = 1 to m - 1 do
      if Float.compare (fin.(p) +. oct.(p)) (fin.(!best) +. oct.(!best)) < 0
      then best := p
    done;
    st.Driver.chosen.(0) <- !best
  in
  Driver.schedule ~instance:inst ?trace
    ~policy:
      {
        Insertion_list.policy with
        discipline =
          Driver.Priority { key = (fun _ t -> rank.(t)); tie = Driver.Lifo_tie };
        choose;
      }
    ()

module Dag = Ftsched_dag.Dag
module Instance = Ftsched_model.Instance
module Levels = Ftsched_model.Levels
module Driver = Ftsched_kernel.Driver

(* The critical path: start from the entry task with maximal priority and
   repeatedly follow the successor of (near-)maximal priority. *)
let critical_path inst priority =
  let g = Instance.dag inst in
  let tolerance = 1e-9 in
  let cp_value = Array.fold_left Float.max neg_infinity priority in
  let on_cp t =
    Float.abs (priority.(t) -. cp_value) <= tolerance *. Float.max 1. cp_value
  in
  let start =
    match Array.find_opt on_cp (Dag.entries g) with
    | Some t -> t
    | None -> (Dag.entries g).(0)
  in
  let off = Dag.Csr.succ_offsets g and succ = Dag.Csr.succ_tasks g in
  let rec first_on_cp k hi =
    if k >= hi then None
    else if on_cp succ.(k) then Some succ.(k)
    else first_on_cp (k + 1) hi
  in
  let rec follow t acc =
    let acc = t :: acc in
    match first_on_cp off.(t) off.(t + 1) with
    | Some t' -> follow t' acc
    | None -> List.rev acc
  in
  follow start []

let schedule ?trace inst =
  let v = Instance.n_tasks inst and m = Instance.n_procs inst in
  let bl = Levels.bottom_levels inst in
  let rd = Levels.downward_ranks inst in
  let priority = Array.init v (fun t -> bl.(t) +. rd.(t)) in
  let cp = critical_path inst priority in
  let cp_proc =
    (* processor minimizing the critical path's total execution time *)
    let best = ref 0 and best_cost = ref infinity in
    for p = 0 to m - 1 do
      let cost =
        List.fold_left (fun acc t -> acc +. Instance.exec inst t p) 0. cp
      in
      if cost < !best_cost then begin
        best_cost := cost;
        best := p
      end
    done;
    !best
  in
  let on_cp = Array.make v false in
  List.iter (fun t -> on_cp.(t) <- true) cp;
  (* Critical-path tasks are pinned onto [cp_proc]; the rest take their
     earliest-finish processor with insertion. *)
  let choose (st : Driver.state) t =
    if on_cp.(t) then st.Driver.chosen.(0) <- cp_proc
    else Driver.best_by_finish st ~k:1
  in
  Driver.schedule ~instance:inst ?trace
    ~policy:
      {
        Insertion_list.policy with
        discipline =
          Driver.Priority { key = (fun _ t -> priority.(t)); tie = Driver.Lifo_tie };
        choose;
      }
    ()

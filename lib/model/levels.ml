module Dag = Ftsched_dag.Dag

let bottom_levels inst =
  let g = Instance.dag inst in
  let n = Dag.n_tasks g in
  let bl = Array.make n 0. in
  let topo = Dag.topological_order g in
  (* Reverse topological sweep: successors are final when visited. *)
  for i = n - 1 downto 0 do
    let t = topo.(i) in
    let e_avg = Instance.avg_exec inst t in
    if Dag.out_degree g t = 0 then bl.(t) <- e_avg
    else begin
      let acc = ref neg_infinity in
      Dag.iter_succs g t (fun _ t' vol ->
          acc :=
            Float.max !acc
              (e_avg +. Instance.avg_comm_time inst ~volume:vol +. bl.(t')));
      bl.(t) <- !acc
    end
  done;
  bl

let downward_ranks inst =
  let g = Instance.dag inst in
  let n = Dag.n_tasks g in
  let rd = Array.make n 0. in
  let topo = Dag.topological_order g in
  Array.iter
    (fun t ->
      Dag.iter_succs g t (fun _ t' vol ->
          let cand =
            rd.(t) +. Instance.avg_exec inst t
            +. Instance.avg_comm_time inst ~volume:vol
          in
          if cand > rd.(t') then rd.(t') <- cand))
    topo;
  rd

let static_critical_path inst =
  let bl = bottom_levels inst and rd = downward_ranks inst in
  let best = ref 0. in
  Array.iteri (fun t b -> if rd.(t) +. b > !best then best := rd.(t) +. b) bl;
  !best

let sorted_by_bottom_level inst =
  let bl = bottom_levels inst in
  let order = Array.init (Array.length bl) (fun i -> i) in
  Array.sort
    (fun a b ->
      match compare bl.(b) bl.(a) with 0 -> compare a b | c -> c)
    order;
  order

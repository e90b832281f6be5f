module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform

let fastest_avg_exec inst ~eps task =
  let m = Instance.n_procs inst in
  let k = min (eps + 1) m in
  let costs = Array.init m (fun p -> Instance.exec inst task p) in
  Array.sort compare costs;
  let sum = ref 0. in
  for i = 0 to k - 1 do
    sum := !sum +. costs.(i)
  done;
  !sum /. float_of_int k

let fastest_avg_delay inst ~eps =
  let pl = Instance.platform inst in
  let m = Platform.n_procs pl in
  if m < 2 then 0.
  else begin
    let delays = ref [] in
    for a = 0 to m - 1 do
      for b = 0 to m - 1 do
        if a <> b then delays := Platform.delay pl a b :: !delays
      done
    done;
    let arr = Array.of_list !delays in
    Array.sort compare arr;
    let k = min (eps + 1) (Array.length arr) in
    let sum = ref 0. in
    for i = 0 to k - 1 do
      sum := !sum +. arr.(i)
    done;
    !sum /. float_of_int k
  end

let compute inst ~eps ~latency =
  let g = Instance.dag inst in
  let n = Dag.n_tasks g in
  let d_fast = fastest_avg_delay inst ~eps in
  let dl = Array.make n latency in
  let topo = Dag.topological_order g in
  for i = n - 1 downto 0 do
    let ti = topo.(i) in
    if Dag.out_degree g ti = 0 then dl.(ti) <- latency
    else begin
      let acc = ref infinity in
      Dag.iter_succs g ti (fun _ tj vol ->
          let slack =
            dl.(tj) -. fastest_avg_exec inst ~eps tj -. (vol *. d_fast)
          in
          acc := Float.min !acc slack);
      dl.(ti) <- !acc
    end
  done;
  dl

let feasible dl = Array.for_all (fun d -> d >= 0.) dl

module Dag = Ftsched_dag.Dag

type t = {
  dag : Dag.t;
  in_edges : Dag.edge list array;
  out_edges : Dag.edge list array;
  entries : Dag.task list;
  exits : Dag.task list;
}

let of_dag dag =
  let n = Dag.n_tasks dag in
  let in_edges = Array.make n [] and out_edges = Array.make n [] in
  Dag.iter_edges dag (fun e ~src ~dst ~volume:_ ->
      out_edges.(src) <- e :: out_edges.(src);
      in_edges.(dst) <- e :: in_edges.(dst));
  let in_edges = Array.map List.rev in_edges in
  let out_edges = Array.map List.rev out_edges in
  let degree_zero rows =
    List.filter (fun t -> rows.(t) = []) (List.init n Fun.id)
  in
  {
    dag;
    in_edges;
    out_edges;
    entries = degree_zero in_edges;
    exits = degree_zero out_edges;
  }

let preds a t =
  List.map
    (fun e -> (fst (Dag.edge_endpoints a.dag e), Dag.edge_volume a.dag e))
    a.in_edges.(t)

let succs a t =
  List.map
    (fun e -> (snd (Dag.edge_endpoints a.dag e), Dag.edge_volume a.dag e))
    a.out_edges.(t)

let collect iter g t =
  let acc = ref [] in
  iter g t (fun e u vol -> acc := (e, u, vol) :: !acc);
  List.rev !acc

let check_rows a =
  let g = a.dag in
  let module Csr = Dag.Csr in
  let row off arr t =
    List.init (off.(t + 1) - off.(t)) (fun i -> arr.(off.(t) + i))
  in
  let p_off = Csr.pred_offsets g and s_off = Csr.succ_offsets g in
  let n = Dag.n_tasks g in
  let rec task t =
    if t = n then Ok ()
    else begin
      let ins = a.in_edges.(t) and outs = a.out_edges.(t) in
      let src e = fst (Dag.edge_endpoints g e) in
      let dst e = snd (Dag.edge_endpoints g e) in
      let vol = Dag.edge_volume g in
      let triples far = List.map (fun e -> (e, far e, vol e)) in
      let fail what = Error (Printf.sprintf "task %d: %s" t what) in
      if row p_off (Csr.pred_edges g) t <> ins then fail "pred_edges"
      else if row p_off (Csr.pred_tasks g) t <> List.map src ins then
        fail "pred_tasks"
      else if row p_off (Csr.pred_volumes g) t <> List.map vol ins then
        fail "pred_volumes"
      else if row s_off (Csr.succ_edges g) t <> outs then fail "succ_edges"
      else if row s_off (Csr.succ_tasks g) t <> List.map dst outs then
        fail "succ_tasks"
      else if collect Dag.iter_preds g t <> triples src ins then
        fail "iter_preds"
      else if collect Dag.iter_succs g t <> triples dst outs then
        fail "iter_succs"
      else if Dag.in_degree g t <> List.length ins then fail "in_degree"
      else if Dag.out_degree g t <> List.length outs then fail "out_degree"
      else task (t + 1)
    end
  in
  if Array.length p_off <> n + 1 || Array.length s_off <> n + 1 then
    Error "offset arrays are not n_tasks + 1 long"
  else task 0

let check_ends a =
  if Array.to_list (Dag.entries a.dag) <> a.entries then Error "entries"
  else if Array.to_list (Dag.exits a.dag) <> a.exits then Error "exits"
  else Ok ()

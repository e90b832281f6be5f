(* A deliberately naive re-implementation of FTSA used as a test oracle.

   Same algorithm as Ftsched_core.Ftsa_policy in all-to-all mode, written
   with none of its machinery: plain lists instead of the priority heap,
   quadratic scans instead of incremental updates, and fresh recomputation
   of every quantity at every step.  Slow and obvious — if the optimized
   engine and this one ever disagree on a schedule, one of them is wrong.

   Tie-breaking must match the engine exactly: the engine assigns each
   freed task a random tie key drawn in the order tasks become free, and
   pops the maximum (priority, tie, task).  We reproduce that order:
   entry tasks are pushed first (in increasing id), then successors as
   they free up. *)

module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Levels = Ftsched_model.Levels
module Rng = Ftsched_util.Rng
module Adjacency = Ftsched_oracle.Adjacency

type replica = {
  proc : int;
  start : float;
  finish : float;
  pess_start : float;
  pess_finish : float;
}

type result = { replicas : replica array array }

let schedule ~seed inst ~eps =
  let rng = Rng.create ~seed in
  let g = Instance.dag inst in
  let pl = Instance.platform inst in
  let v = Dag.n_tasks g and m = Instance.n_procs inst in
  let adj = Adjacency.of_dag g in
  let bl = Levels.bottom_levels inst in
  let placed : replica array option array = Array.make v None in
  let free = ref [] in
  (* (priority, tie, task) list; we scan for the max every time *)
  let push t =
    let tl =
      List.fold_left
        (fun acc (t', vol) ->
          let rs = match placed.(t') with Some r -> r | None -> assert false in
          let earliest =
            Array.fold_left
              (fun best c ->
                Float.min best
                  (c.finish +. (vol *. Platform.max_delay_from pl c.proc)))
              infinity rs
          in
          Float.max acc earliest)
        0. (Adjacency.preds adj t)
    in
    free := (tl +. bl.(t), Rng.float_in rng 0. 1., t) :: !free
  in
  List.iter push adj.Adjacency.entries;
  let remaining = Array.init v (fun t -> Dag.in_degree g t) in
  let ready_opt = Array.make m 0. and ready_pess = Array.make m 0. in
  for _ = 1 to v do
    let best =
      List.fold_left
        (fun acc x -> match acc with None -> Some x | Some b -> if x > b then Some x else acc)
        None !free
    in
    let _, _, t = Option.get best in
    free := List.filter (fun (_, _, x) -> x <> t) !free;
    (* finish estimates on every processor, straight from eqs (1)/(3) *)
    let estimates =
      List.init m (fun p ->
          let in_opt = ref 0. and in_pess = ref 0. in
          List.iter
            (fun (t', vol) ->
              let rs = Option.get placed.(t') in
              let e_opt =
                Array.fold_left
                  (fun b c ->
                    Float.min b (c.finish +. (vol *. Platform.delay pl c.proc p)))
                  infinity rs
              in
              let e_pess =
                Array.fold_left
                  (fun b c ->
                    Float.max b
                      (c.pess_finish +. (vol *. Platform.delay pl c.proc p)))
                  0. rs
              in
              if e_opt > !in_opt then in_opt := e_opt;
              if e_pess > !in_pess then in_pess := e_pess)
            (Adjacency.preds adj t);
          let e = Instance.exec inst t p in
          ( p,
            e +. Float.max !in_opt ready_opt.(p),
            e +. Float.max !in_pess ready_pess.(p) ))
    in
    let sorted =
      List.sort
        (fun (pa, fa, _) (pb, fb, _) ->
          match compare fa fb with 0 -> compare pa pb | c -> c)
        estimates
    in
    let chosen = List.filteri (fun i _ -> i <= eps) sorted in
    let reps =
      Array.of_list
        (List.map
           (fun (p, f_opt, f_pess) ->
             let e = Instance.exec inst t p in
             {
               proc = p;
               start = f_opt -. e;
               finish = f_opt;
               pess_start = f_pess -. e;
               pess_finish = f_pess;
             })
           chosen)
    in
    placed.(t) <- Some reps;
    Array.iter
      (fun c ->
        if c.finish > ready_opt.(c.proc) then ready_opt.(c.proc) <- c.finish;
        if c.pess_finish > ready_pess.(c.proc) then
          ready_pess.(c.proc) <- c.pess_finish)
      reps;
    List.iter
      (fun (t', _) ->
        remaining.(t') <- remaining.(t') - 1;
        if remaining.(t') = 0 then push t')
      (Adjacency.succs adj t)
  done;
  { replicas = Array.map Option.get placed }

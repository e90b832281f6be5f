(* The pre-flat-array crash replay: the [Crash_exec] implementation
   that keyed effective senders by [(edge, replica)] in a Hashtbl, sorted
   per-processor timelines with polymorphic compare and ran Kahn's
   sweep over list-valued dependency arrays and a tuple [Queue].  Kept
   verbatim as a differential baseline: the flat-array pass in
   {!Crash_exec} must agree with this one bit for bit on every run — the
   test suite, the fuzzer and the scale oracle compare the two.  Keep
   this file frozen; behavioural changes belong in {!Crash_exec}. *)

module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan

type policy = Crash_exec.policy = Strict | Reroute

type replica_outcome = Crash_exec.replica_outcome =
  | Completed of { start : float; finish : float }
  | Starved
  | Dead

type t = Crash_exec.t = {
  latency : float option;
  outcomes : replica_outcome array array;
}

(* Replica [k] of [task] as one flat index. *)
let rid ~eps task k = (task * (eps + 1)) + k

(* [f j] holds for every entry [j] of [task]'s predecessor row, tested in
   row order up to the first failure. *)
let for_all_preds g task f =
  let off = Dag.Csr.pred_offsets g in
  let rec go j = j >= off.(task + 1) || (f j && go (j + 1)) in
  go off.(task)

(* Productivity (purely structural, no timing): a replica produces output
   iff its processor is alive and every input edge can be fed.  Strict:
   by a productive plan sender.  Reroute: by any productive replica of
   the predecessor, so the plan is never consulted and a replica is
   productive iff it is alive and every predecessor task delivers — true
   without looking while every task so far delivers.  One topological
   pass over the flat [productive] table suffices; it returns whether
   every task delivers, and with [~stop_at_loss] it stops at the first
   task that does not (leaving the table partial). *)
let productivity s ~policy ~dead ~stop_at_loss =
  let inst = Schedule.instance s in
  let g = Instance.dag inst in
  let eps = Schedule.eps s in
  let plan = Schedule.comm s in
  let v = Dag.n_tasks g in
  let productive = Array.make (v * (eps + 1)) false in
  let delivers = Array.make v false in
  let order = Dag.topological_order g in
  let pred_edges = Dag.Csr.pred_edges g and pred_tasks = Dag.Csr.pred_tasks g in
  let all_deliver = ref true and i = ref 0 in
  while !i < v && (!all_deliver || not stop_at_loss) do
    let task = order.(!i) in
    let preds_deliver =
      policy = Reroute
      && (!all_deliver
         || for_all_preds g task (fun j -> delivers.(pred_tasks.(j))))
    in
    for k = 0 to eps do
      let r = Schedule.replica s task k in
      if not dead.(r.proc) then begin
        let fed =
          match policy with
          | Reroute -> preds_deliver
          | Strict ->
              for_all_preds g task (fun j ->
                  List.exists
                    (fun sk -> productive.(rid ~eps pred_tasks.(j) sk))
                    (Plan_view.senders_to plan ~eps pred_edges.(j)
                       ~dst_replica:k))
        in
        if fed then begin
          productive.(rid ~eps task k) <- true;
          delivers.(task) <- true
        end
      end
    done;
    if not delivers.(task) then all_deliver := false;
    incr i
  done;
  (productive, !all_deliver)

let dead_procs ~fn s scenario =
  let m = Instance.n_procs (Schedule.instance s) in
  let dead = Array.make m false in
  Array.iter
    (fun p ->
      if p < 0 || p >= m then
        invalid_arg
          (Printf.sprintf "Crash_exec.%s: processor %d not in [0, %d)" fn p m);
      dead.(p) <- true)
    scenario.Scenario.failed;
  dead

let survives ?(policy = Strict) s scenario =
  let dead = dead_procs ~fn:"survives" s scenario in
  snd (productivity s ~policy ~dead ~stop_at_loss:true)

let run ?(policy = Strict) s scenario =
  let inst = Schedule.instance s in
  let g = Instance.dag inst in
  let pl = Instance.platform inst in
  let eps = Schedule.eps s in
  let plan = Schedule.comm s in
  let v = Dag.n_tasks g and m = Instance.n_procs inst in
  let dead = dead_procs ~fn:"run" s scenario in
  let productive, all_tasks_ok =
    productivity s ~policy ~dead ~stop_at_loss:false
  in
  (* Replica-level dependency graph: data edges (effective sender →
     receiver) plus per-processor chains between consecutive productive
     replicas in planned order.  Both are consistent with the scheduler's
     commit order, hence acyclic; a Kahn sweep then re-times every
     productive replica. *)
  let rid = rid ~eps in
  let n = v * (eps + 1) in
  let pred_off = Dag.Csr.pred_offsets g and pred_edges = Dag.Csr.pred_edges g in
  let pred_tasks = Dag.Csr.pred_tasks g and pred_vols = Dag.Csr.pred_volumes g in
  let dep_succs = Array.make n [] in
  let indeg = Array.make n 0 in
  let add_dep a b =
    dep_succs.(a) <- b :: dep_succs.(a);
    indeg.(b) <- indeg.(b) + 1
  in
  (* Effective senders feeding replica [k] of the edge's destination: the
     productive plan senders, or (reroute, none alive) every productive
     replica of the source. *)
  let effective_senders src e ~dst_replica =
    let productive_of = List.filter (fun sk -> productive.(rid src sk)) in
    match productive_of (Plan_view.senders_to plan ~eps e ~dst_replica) with
    | [] when policy = Reroute -> productive_of (List.init (eps + 1) Fun.id)
    | planned -> planned
  in
  let senders = Hashtbl.create (4 * n) in
  for task = 0 to v - 1 do
    for k = 0 to eps do
      if productive.(rid task k) then
        for j = pred_off.(task) to pred_off.(task + 1) - 1 do
          let e = pred_edges.(j) and src = pred_tasks.(j) in
          let eff = effective_senders src e ~dst_replica:k in
          Hashtbl.replace senders (e, k) eff;
          List.iter (fun sk -> add_dep (rid src sk) (rid task k)) eff
        done
    done
  done;
  for p = 0 to m - 1 do
    if not dead.(p) then begin
      let chain =
        List.filter
          (fun (r : Schedule.replica) -> productive.(rid r.task r.index))
          (Array.to_list (Schedule.timeline s p))
      in
      let rec link = function
        | a :: (b :: _ as rest) ->
            add_dep (rid a.Schedule.task a.index) (rid b.Schedule.task b.index);
            link rest
        | _ -> ()
      in
      link chain
    end
  done;
  (* Timing sweep. *)
  let start_of = Array.make n 0. in
  let finish_of = Array.make n infinity in
  let proc_free = Array.make m 0. in
  let q = Queue.create () in
  for task = 0 to v - 1 do
    for k = 0 to eps do
      if productive.(rid task k) && indeg.(rid task k) = 0 then
        Queue.add (task, k) q
    done
  done;
  while not (Queue.is_empty q) do
    let task, k = Queue.pop q in
    let id = rid task k in
    let r = Schedule.replica s task k in
    let arrival = ref 0. in
    for j = pred_off.(task) to pred_off.(task + 1) - 1 do
      let src = pred_tasks.(j) and vol = pred_vols.(j) in
      let first =
        List.fold_left
          (fun best sk ->
            let sr = Schedule.replica s src sk in
            let w = vol *. Platform.delay pl sr.proc r.proc in
            Float.min best (finish_of.(rid src sk) +. w))
          infinity
          (Hashtbl.find senders (pred_edges.(j), k))
      in
      arrival := Float.max !arrival first
    done;
    let start = Float.max !arrival proc_free.(r.proc) in
    let finish = start +. Instance.exec inst task r.proc in
    start_of.(id) <- start;
    finish_of.(id) <- finish;
    proc_free.(r.proc) <- finish;
    List.iter
      (fun b ->
        indeg.(b) <- indeg.(b) - 1;
        if indeg.(b) = 0 then Queue.add (b / (eps + 1), b mod (eps + 1)) q)
      dep_succs.(id)
  done;
  let outcomes =
    Array.init v (fun task ->
        Array.init (eps + 1) (fun k ->
            let r = Schedule.replica s task k in
            if dead.(r.proc) then Dead
            else if not productive.(rid task k) then Starved
            else
              Completed
                { start = start_of.(rid task k); finish = finish_of.(rid task k) }))
  in
  (* Achieved latency: every task must complete somewhere; the user-visible
     instant is the first completion of each exit task. *)
  let latency =
    if not all_tasks_ok then None
    else
      Some
        (Array.fold_left
           (fun acc e ->
             let first =
               Array.fold_left
                 (fun best o ->
                   match o with
                   | Completed { finish; _ } -> Float.min best finish
                   | Starved | Dead -> best)
                 infinity outcomes.(e)
             in
             Float.max acc first)
           0. (Dag.exits g))
  in
  { latency; outcomes }

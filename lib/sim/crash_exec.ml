module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan

type policy = Strict | Reroute

type replica_outcome =
  | Completed of { start : float; finish : float }
  | Starved
  | Dead

type t = {
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
   by a productive plan sender — under [All_to_all] every replica of the
   predecessor is one, so that is "the predecessor delivers"; under
   [Selected] the edge's pair list is walked in place.  Reroute: by any
   productive replica of the predecessor, so the plan is never consulted
   and a replica is productive iff it is alive and every predecessor task
   delivers — true without looking while every task so far delivers.
   One topological pass over the flat [productive] table suffices; it
   returns whether every task delivers, and with [~stop_at_loss] it stops
   at the first task that does not (leaving the table partial). *)
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
      match (policy, plan) with
      | Reroute, _ | Strict, Comm_plan.All_to_all ->
          !all_deliver
          || for_all_preds g task (fun j -> delivers.(pred_tasks.(j)))
      | Strict, Comm_plan.Selected _ -> false
    in
    for k = 0 to eps do
      let r = Schedule.replica s task k in
      if not dead.(r.proc) then begin
        let fed =
          match (policy, plan) with
          | Reroute, _ | Strict, Comm_plan.All_to_all -> preds_deliver
          | Strict, Comm_plan.Selected sel ->
              for_all_preds g task (fun j ->
                  let src = pred_tasks.(j) in
                  List.exists
                    (fun (p : Comm_plan.pair) ->
                      p.dst_replica = k
                      && productive.(rid ~eps src p.src_replica))
                    sel.(pred_edges.(j)))
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

(* Sender rows.  Entry [j] of a task's predecessor row owns the [kk]
   slots [j * kk … j * kk + kk - 1], one per receiver replica; [src0] and
   [dst0] are the rids of replica 0 of the edge's source and destination.
   A plan pair counts when both its sender and its receiver are
   productive (a pair naming a receiver outside [0, kk) feeds nobody).
   [count_plan_senders] adds one to [cnt.(slot + 1)] per counted pair of
   the edge; [push_plan_senders] writes the counted pairs' senders at the
   per-receiver cursors [at], in plan order.  Either is one walk of the
   pair list.  [push_productive] writes every productive replica of the
   source from [at] on, in index order — the all-to-all plan, and the
   reroute fallback. *)
let counted productive ~kk ~src0 ~dst0 (p : Comm_plan.pair) =
  p.dst_replica >= 0 && p.dst_replica < kk
  && productive.(src0 + p.src_replica)
  && productive.(dst0 + p.dst_replica)

let rec count_plan_senders productive ~kk ~src0 ~dst0 cnt slot0 = function
  | [] -> ()
  | (p : Comm_plan.pair) :: rest ->
      if counted productive ~kk ~src0 ~dst0 p then begin
        let c = slot0 + p.dst_replica + 1 in
        cnt.(c) <- cnt.(c) + 1
      end;
      count_plan_senders productive ~kk ~src0 ~dst0 cnt slot0 rest

let rec push_plan_senders productive ~kk ~src0 ~dst0 snd at = function
  | [] -> ()
  | (p : Comm_plan.pair) :: rest ->
      if counted productive ~kk ~src0 ~dst0 p then begin
        let k = p.dst_replica in
        snd.(at.(k)) <- src0 + p.src_replica;
        at.(k) <- at.(k) + 1
      end;
      push_plan_senders productive ~kk ~src0 ~dst0 snd at rest

let push_productive productive ~kk ~src0 snd at =
  let at = ref at in
  for sk = 0 to kk - 1 do
    if productive.(src0 + sk) then begin
      snd.(!at) <- src0 + sk;
      incr at
    end
  done

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
     productive replica.  Every replica time depends only on its
     dependencies' times, so the sweep's visiting order does not change
     a bit of the result. *)
  let kk = eps + 1 in
  let n = v * kk in
  let pred_off = Dag.Csr.pred_offsets g and pred_edges = Dag.Csr.pred_edges g in
  let pred_tasks = Dag.Csr.pred_tasks g and pred_vols = Dag.Csr.pred_volumes g in
  let proc = Array.make n 0 in
  let n_prod = Array.make v 0 in
  for task = 0 to v - 1 do
    for k = 0 to eps do
      let id = (task * kk) + k in
      proc.(id) <- (Schedule.replica s task k).proc;
      if productive.(id) then n_prod.(task) <- n_prod.(task) + 1
    done
  done;
  (* Effective senders feeding replica [k] of a task through entry [j] of
     its predecessor row — the productive plan senders in plan order, or
     (reroute, none productive) every productive replica of the
     predecessor — as sender rids in the flat row [snd_off.(j * kk + k)]
     … [snd_off.(j * kk + k + 1) - 1].  A counting pass sizes the rows:
     only productive receivers get entries, so a replay where most
     replicas starve stays small.  Its counts land in
     [snd_off.(slot + 1)] and become offsets slot by slot, in increasing
     order; they are also each receiver's data in-degree. *)
  let indeg = Array.make n 0 in
  let n_slots = pred_off.(v) * kk in
  let snd_off = Array.make (n_slots + 1) 0 in
  for task = 0 to v - 1 do
    let dst0 = task * kk in
    for j = pred_off.(task) to pred_off.(task + 1) - 1 do
      let src = pred_tasks.(j) in
      (match plan with
      | Comm_plan.All_to_all -> ()
      | Comm_plan.Selected sel ->
          count_plan_senders productive ~kk ~src0:(src * kk) ~dst0 snd_off
            (j * kk) sel.(pred_edges.(j)));
      for k = 0 to eps do
        let slot = (j * kk) + k and id = dst0 + k in
        let c =
          if not productive.(id) then 0
          else
            match plan with
            | Comm_plan.All_to_all -> n_prod.(src)
            | Comm_plan.Selected _ -> (
                match snd_off.(slot + 1) with
                | 0 when policy = Reroute -> n_prod.(src)
                | c -> c)
        in
        snd_off.(slot + 1) <- snd_off.(slot) + c;
        indeg.(id) <- indeg.(id) + c
      done
    done
  done;
  let n_snd = snd_off.(n_slots) in
  let snd = Array.make n_snd 0 in
  let at = Array.make kk 0 in
  for task = 0 to v - 1 do
    let dst0 = task * kk in
    for j = pred_off.(task) to pred_off.(task + 1) - 1 do
      let src0 = pred_tasks.(j) * kk in
      Array.blit snd_off (j * kk) at 0 kk;
      (match plan with
      | Comm_plan.All_to_all -> ()
      | Comm_plan.Selected sel ->
          push_plan_senders productive ~kk ~src0 ~dst0 snd at
            sel.(pred_edges.(j)));
      for k = 0 to eps do
        let slot = (j * kk) + k in
        if at.(k) = snd_off.(slot) && snd_off.(slot + 1) > snd_off.(slot) then
          push_productive productive ~kk ~src0 snd at.(k)
      done
    done
  done;
  (* The data successors of each sender, as a CSR over rids. *)
  let succ_off = Array.make (n + 1) 0 in
  for i = 0 to n_snd - 1 do
    succ_off.(snd.(i) + 1) <- succ_off.(snd.(i) + 1) + 1
  done;
  for id = 0 to n - 1 do
    succ_off.(id + 1) <- succ_off.(id + 1) + succ_off.(id)
  done;
  let succ = Array.make n_snd 0 in
  let fill = Array.sub succ_off 0 n in
  for task = 0 to v - 1 do
    for j = pred_off.(task) to pred_off.(task + 1) - 1 do
      for k = 0 to eps do
        let slot = (j * kk) + k in
        for i = snd_off.(slot) to snd_off.(slot + 1) - 1 do
          let sender = snd.(i) in
          succ.(fill.(sender)) <- (task * kk) + k;
          fill.(sender) <- fill.(sender) + 1
        done
      done
    done
  done;
  (* Processor chains: each processor's planned order with the
     non-productive replicas skipped; [chain_next.(id)] is the next
     productive replica on [id]'s processor, or -1. *)
  let chain_next = Array.make n (-1) in
  for p = 0 to m - 1 do
    let timeline = Schedule.timeline s p in
    let prev = ref (-1) in
    for i = 0 to Array.length timeline - 1 do
      let (r : Schedule.replica) = timeline.(i) in
      let id = (r.task * kk) + r.index in
      if productive.(id) then begin
        if !prev >= 0 then begin
          chain_next.(!prev) <- id;
          indeg.(id) <- indeg.(id) + 1
        end;
        prev := id
      end
    done
  done;
  (* Timing sweep: Kahn's algorithm with an int-array FIFO (each replica
     enters it at most once). *)
  let delay = Array.init m (Platform.delay_row pl) in
  let start_of = Array.make n 0. in
  let finish_of = Array.make n infinity in
  let proc_free = Array.make m 0. in
  let fifo = Array.make n 0 in
  let tail = ref 0 in
  for id = 0 to n - 1 do
    if productive.(id) && indeg.(id) = 0 then begin
      fifo.(!tail) <- id;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let id = fifo.(!head) in
    incr head;
    let task = id / kk and k = id mod kk in
    let p = proc.(id) in
    let arrival = ref 0. in
    for j = pred_off.(task) to pred_off.(task + 1) - 1 do
      let vol = pred_vols.(j) and slot = (j * kk) + k in
      let first = ref infinity in
      for i = snd_off.(slot) to snd_off.(slot + 1) - 1 do
        let sender = snd.(i) in
        let w = vol *. delay.(proc.(sender)).(p) in
        first := Float.min !first (finish_of.(sender) +. w)
      done;
      arrival := Float.max !arrival !first
    done;
    let start = Float.max !arrival proc_free.(p) in
    let finish = start +. Instance.exec inst task p in
    start_of.(id) <- start;
    finish_of.(id) <- finish;
    proc_free.(p) <- finish;
    for i = succ_off.(id) to succ_off.(id + 1) - 1 do
      let b = succ.(i) in
      indeg.(b) <- indeg.(b) - 1;
      if indeg.(b) = 0 then begin
        fifo.(!tail) <- b;
        incr tail
      end
    done;
    let b = chain_next.(id) in
    if b >= 0 then begin
      indeg.(b) <- indeg.(b) - 1;
      if indeg.(b) = 0 then begin
        fifo.(!tail) <- b;
        incr tail
      end
    end
  done;
  let outcomes =
    Array.init v (fun task ->
        Array.init kk (fun k ->
            let id = (task * kk) + k in
            if dead.(proc.(id)) then Dead
            else if not productive.(id) then Starved
            else Completed { start = start_of.(id); finish = finish_of.(id) }))
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

type defeat = { task : int; scenario : Scenario.t }

exception Defeated of defeat

let () =
  Printexc.register_printer (function
    | Defeated { task; scenario } ->
        Some
          (Format.asprintf "Crash_exec.Defeated: task %d lost under %a" task
             Scenario.pp scenario)
    | _ -> None)

let latency_result ?policy s scenario =
  let t = run ?policy s scenario in
  match t.latency with
  | Some l -> Ok l
  | None ->
      let completed = function Completed _ -> true | Starved | Dead -> false in
      let rec lost task =
        if Array.exists completed t.outcomes.(task) then lost (task + 1)
        else task
      in
      Error { task = lost 0; scenario }

let latency_exn ?policy s scenario =
  match latency_result ?policy s scenario with
  | Ok l -> l
  | Error d -> raise (Defeated d)

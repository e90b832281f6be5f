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
   by a productive plan sender — under all-to-all every replica of the
   predecessor is one, so that is "the predecessor delivers"; otherwise
   the plan's senders of the replica are walked in place.  Reroute: by
   any productive replica of the predecessor, so the plan is never
   consulted and a replica is productive iff it is alive and every
   predecessor task delivers — true without looking while every task so
   far delivers.  One topological pass over the flat [productive] table
   suffices; it returns whether every task delivers, and with
   [~stop_at_loss] it stops at the first task that does not (leaving the
   table partial). *)
let productivity s ~policy ~dead ~stop_at_loss =
  let inst = Schedule.instance s in
  let g = Instance.dag inst in
  let eps = Schedule.eps s in
  let plan = Schedule.comm s in
  let by_plan = policy = Strict && not (Comm_plan.is_all_to_all plan) in
  let v = Dag.n_tasks g in
  let productive = Array.make (v * (eps + 1)) false in
  let delivers = Array.make v false in
  let order = Dag.topological_order g in
  let pred_edges = Dag.Csr.pred_edges g and pred_tasks = Dag.Csr.pred_tasks g in
  (* does a productive plan sender feed replica [k] through entry [j]? *)
  let from = Array.make (Comm_plan.widest plan ~eps) 0 in
  let plan_fed k j =
    let n = Comm_plan.senders plan ~eps pred_edges.(j) ~dst:k from in
    let i = ref 0 in
    while !i < n && not productive.(rid ~eps pred_tasks.(j) from.(!i)) do
      incr i
    done;
    !i < n
  in
  let all_deliver = ref true and i = ref 0 in
  while !i < v && (!all_deliver || not stop_at_loss) do
    let task = order.(!i) in
    let preds_deliver =
      (not by_plan)
      && (!all_deliver
         || for_all_preds g task (fun j -> delivers.(pred_tasks.(j))))
    in
    for k = 0 to eps do
      let r = Schedule.replica s task k in
      if not dead.(r.proc) then begin
        let fed =
          if by_plan then for_all_preds g task (plan_fed k) else preds_deliver
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
     productive replica.  Every replica time depends only on its
     dependencies' times, so the sweep's visiting order does not change
     a bit of the result. *)
  let kk = eps + 1 in
  let n = v * kk in
  let pred_off = Dag.Csr.pred_offsets g and pred_edges = Dag.Csr.pred_edges g in
  let pred_tasks = Dag.Csr.pred_tasks g and pred_vols = Dag.Csr.pred_volumes g in
  let proc = Array.make n 0 in
  for task = 0 to v - 1 do
    for k = 0 to eps do
      proc.((task * kk) + k) <- (Schedule.replica s task k).proc
    done
  done;
  (* Effective senders feeding replica [k] of a task through entry [j] of
     its predecessor row — the productive plan senders of [k], in plan
     order, or (reroute, none productive) every productive replica of the
     predecessor, in index order — as sender rids in the flat row
     [snd.(snd_off.(j * kk + k))] … [snd.(snd_off.(j * kk + k + 1) - 1)].
     The slots are filled in increasing order, appending to one growing
     buffer; only productive receivers get entries, so a replay where
     most replicas starve stays small.  A row's length is also its
     receiver's data in-degree. *)
  let indeg = Array.make n 0 in
  let n_slots = pred_off.(v) * kk in
  let snd_off = Array.make (n_slots + 1) 0 in
  (* Room for a slot's share of the plan's widest row in every slot; a
     full buffer grows to room for [kk] senders in every slot left. *)
  let from = Array.make (Comm_plan.widest plan ~eps) 0 in
  let per_slot = max 1 (Array.length from / kk) in
  let buf = ref (Array.make ((n_slots * per_slot) + 1) 0) in
  let n_snd = ref 0 in
  let add slot sender =
    if !n_snd = Array.length !buf then begin
      let room = max (2 * !n_snd) (!n_snd + ((n_slots - slot) * kk)) in
      let b = Array.make room 0 in
      Array.blit !buf 0 b 0 !n_snd;
      buf := b
    end;
    !buf.(!n_snd) <- sender;
    incr n_snd
  in
  for task = 0 to v - 1 do
    for j = pred_off.(task) to pred_off.(task + 1) - 1 do
      let e = pred_edges.(j) and src0 = pred_tasks.(j) * kk in
      for k = 0 to eps do
        let slot = (j * kk) + k and id = (task * kk) + k in
        if productive.(id) then begin
          for i = 0 to Comm_plan.senders plan ~eps e ~dst:k from - 1 do
            if productive.(src0 + from.(i)) then add slot (src0 + from.(i))
          done;
          if !n_snd = snd_off.(slot) && policy = Reroute then
            for sk = src0 to src0 + eps do
              if productive.(sk) then add slot sk
            done
        end;
        snd_off.(slot + 1) <- !n_snd;
        indeg.(id) <- indeg.(id) + (!n_snd - snd_off.(slot))
      done
    done
  done;
  let snd = !buf and n_snd = !n_snd in
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
    (* The first copy, the latest input and the start are plain
       comparisons: [Float.min] and [Float.max] call C whenever their
       second operand is not the larger, and they pick the same operand
       here, where no operand is NaN (instances, platforms and DAGs
       reject it) or -0.0 (each is +0, a finish, or a finish plus a
       volume-delay product). *)
    let arrival = ref 0. in
    for j = pred_off.(task) to pred_off.(task + 1) - 1 do
      let vol = pred_vols.(j) and slot = (j * kk) + k in
      let first = ref infinity in
      for i = snd_off.(slot) to snd_off.(slot + 1) - 1 do
        let sender = snd.(i) in
        let a = finish_of.(sender) +. (vol *. delay.(proc.(sender)).(p)) in
        if a < !first then first := a
      done;
      if !first > !arrival then arrival := !first
    done;
    let start = if proc_free.(p) > !arrival then proc_free.(p) else !arrival in
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

module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Metrics = Ftsched_schedule.Metrics
module Event_sim = Ftsched_sim.Event_sim
module Scenario = Ftsched_sim.Scenario
module Engine = Event_sim.Engine

type outcome = {
  result : Event_sim.result;
  degraded : Metrics.degraded;
  injections : int;
  kills : int;
  detected_failures : int;
}

(* [a] copied into a fresh array of [len] entries, [fill] past its end *)
let grown a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let run ?network ?faults ?release ?(delta = 0.) ?rounds s ~fail_times =
  let inst = Schedule.instance s in
  let g = Instance.dag inst in
  let pl = Instance.platform inst in
  let m = Instance.n_procs inst in
  let v = Dag.n_tasks g in
  let eps = Schedule.eps s in
  if Array.length fail_times <> m then invalid_arg "Recovery.run: fail_times";
  let rounds =
    match rounds with
    | Some r when r < 0 -> invalid_arg "Recovery.run: rounds"
    | Some r -> r
    | None -> m
  in
  let det = Detector.create ~fail_times ~delta in
  let eng = Engine.create ?network ?faults ?release s ~fail_times in
  (* in-edge [pos] of [task] is row entry [pred_off.(task) + pos] *)
  let pred_off = Dag.Csr.pred_offsets g and pred_tasks = Dag.Csr.pred_tasks g in
  let pred_vols = Dag.Csr.pred_volumes g in
  let succ_off = Dag.Csr.succ_offsets g and succ_tasks = Dag.Csr.succ_tasks g in
  let order = Dag.topological_order g in
  let rank = Array.make v 0 in
  Array.iteri (fun i t -> rank.(t) <- i) order;
  let kk = eps + 1 in
  let n_static = v * kk in
  let detected = Array.make m false in
  (* Viability, one byte per engine row: set when the row's task was
     last visited and the row was completed on a believed-alive
     processor, running, or waiting with every input either already
     delivered or coverable by a viable predecessor row. *)
  let viable = ref (Bytes.make (n_static + 64) '\000') in
  let is_viable rid = Bytes.get !viable rid <> '\000' in
  let set_viable rid b =
    if rid >= Bytes.length !viable then begin
      let grown = Bytes.make (2 * rid) '\000' in
      Bytes.blit !viable 0 grown 0 (Bytes.length !viable);
      viable := grown
    end;
    Bytes.set !viable rid (if b then '\001' else '\000')
  in
  (* Injected row [j] (engine row [n_static + j]): its estimated
     completion, for the eq. (1) placement rule only (a static row's is
     the schedule's optimistic finish). *)
  let est = ref (Array.make 16 0.) in
  (* Is every input of row [rid] (of [task]) delivered, or fed by a
     viable row?  The engine's wiring says who feeds it: the plan's
     senders for a static row, the sources it was injected with
     otherwise. *)
  let covered rid task =
    let ok = ref true and pos = ref 0 in
    while !ok && !pos < Dag.in_degree g task do
      ok :=
        Engine.row_input_satisfied eng rid !pos
        || Engine.exists_source eng rid !pos is_viable;
      incr pos
    done;
    !ok
  in
  (* Scratch for one re-mapping: the viable sources of input [pos] are
     entries [src_lo.(pos)] to [src_lo.(pos + 1) - 1], each with its
     row, processor's delay row and base time (the estimated departure
     of its data), then the arrival [Engine.inject] reads. *)
  let cap = ref 64 in
  let src_rid = ref (Array.make !cap 0) and src_at = ref (Array.make !cap 0.) in
  let src_base = ref (Array.make !cap 0.) in
  let src_delay = ref (Array.make !cap [||]) in
  let src_lo = ref (Array.make 64 0) in
  let kill_reps = ref (Array.make 8 0) in
  let ready = Array.make m 0. and arrival = Array.make m 0. in
  let injections_per_task = Array.make v 0 in
  let total_injections = ref 0 and total_kills = ref 0 in

  (* Visit [task] at detection instant [now]: classify its rows, kill
     the waiting ones that can no longer be fed, and re-map the task
     when no viable row remains.  [force] is the post-drain repair mode:
     the engine has quiesced with work missing (a lossy link dropped a
     message after the last detection sweep), so still-waiting replicas
     are written off wholesale and replacements are wired to completed
     (or freshly injected) sources only — a serial re-execution of
     whatever is missing, which cannot deadlock.  [tail] is the believed
     availability per processor, to price multiple injections landing
     on the same processor within one sweep; queued not-yet-started
     static work is deliberately not priced — the rule stays a cheap
     list-scheduling heuristic.  Returns whether the task's viable set
     changed. *)
  let visit ~force now tail task =
    let n = Engine.n_replicas eng task in
    if n > Array.length !kill_reps then kill_reps := Array.make (2 * n) 0;
    let n_kills = ref 0 and any_viable = ref false and task_done = ref false in
    let changed = ref false in
    for rep = 0 to n - 1 do
      let rid = Engine.rid eng ~task ~rep in
      let proc = Engine.row_proc eng rid in
      let ok =
        match Engine.row_state eng rid with
        | Row_done ->
            task_done := true;
            not detected.(proc)
        | Row_running -> not detected.(proc)
        | Row_lost -> false
        | Row_waiting ->
            let ok =
              (not force) && (not detected.(proc)) && covered rid task
            in
            if not ok then begin
              !kill_reps.(!n_kills) <- rep;
              incr n_kills
            end;
            ok
      in
      if ok <> is_viable rid then begin
        changed := true;
        set_viable rid ok
      end;
      if ok then any_viable := true
    done;
    for i = 0 to !n_kills - 1 do
      Engine.kill_replica eng ~task ~rep:!kill_reps.(i);
      incr total_kills
    done;
    (* Re-map when no viable replica remains.  A completed exit task
       needs no replacement (its result is already achieved and nobody
       consumes it); a completed inner task is conservatively
       re-executed, since replicas injected downstream later in this
       sweep would need its data re-sent from a live processor. *)
    if
      (not !any_viable)
      && not (!task_done && Dag.out_degree g task = 0)
      && injections_per_task.(task) < rounds
    then begin
      (* The predecessors' viable rows, re-filtered against the current
         engine state: the kills above may have cascaded into a row
         classified viable moments ago (a queue on a dead-but-undetected
         processor unblocking into a loss).  Each source is priced once:
         its base is the instant its data can leave. *)
      let d = Dag.in_degree g task in
      if d + 1 > Array.length !src_lo then src_lo := Array.make (2 * (d + 1)) 0;
      let ns = ref 0 and all_fed = ref true in
      for pos = 0 to d - 1 do
        !src_lo.(pos) <- !ns;
        let src = pred_tasks.(pred_off.(task) + pos) in
        for sr = 0 to Engine.n_replicas eng src - 1 do
          let rid = Engine.rid eng ~task:src ~rep:sr in
          let state = Engine.row_state eng rid in
          if is_viable rid && state <> Row_lost then begin
            let base =
              match state with
              | Row_done -> Float.max now (Engine.row_finish eng rid)
              | Row_running -> Engine.row_finish eng rid
              | Row_waiting | Row_lost ->
                  Float.max now
                    (if rid < n_static then
                       (Schedule.replica s src sr).finish
                     else !est.(rid - n_static))
            in
            if !ns = !cap then begin
              cap := 2 * !cap;
              src_rid := grown !src_rid !cap 0;
              src_at := grown !src_at !cap 0.;
              src_base := grown !src_base !cap 0.;
              src_delay := grown !src_delay !cap [||]
            end;
            !src_rid.(!ns) <- rid;
            !src_base.(!ns) <- base;
            !src_delay.(!ns) <-
              Platform.delay_row pl (Engine.row_proc eng rid);
            incr ns
          end
        done;
        if !ns = !src_lo.(pos) then all_fed := false
      done;
      !src_lo.(d) <- !ns;
      if !all_fed then begin
        (* eq. (1) restricted to remaining work: minimize the estimated
           finish over believed-alive processors.  The estimate uses
           detector knowledge only — a source on a dead-but-undetected
           processor is priced as if alive.  Each input's earliest
           arrival is a running minimum over its sources, processor by
           processor, and the inputs' latest one their running maximum
           (in source and input order, so every float is that of the
           per-processor formula).  The minimum, the maximum and the start
           are plain comparisons: [Float.min] and [Float.max] call C
           whenever their second operand is not the larger, and they pick
           the same operand here, where no operand is NaN (instances,
           platforms and DAGs reject it) or -0.0 (each is [now], a
           finish, a base at least [now] plus a volume-delay product,
           or a [tail] at least [now]). *)
        let src_lo = !src_lo and src_base = !src_base in
        let src_delay = !src_delay in
        let vol_base = pred_off.(task) in
        Array.fill ready 0 m 0.;
        for pos = 0 to d - 1 do
          let vol = pred_vols.(vol_base + pos) in
          Array.fill arrival 0 m infinity;
          for i = src_lo.(pos) to src_lo.(pos + 1) - 1 do
            let base = src_base.(i) and delay = src_delay.(i) in
            for p = 0 to m - 1 do
              let a = base +. (vol *. delay.(p)) in
              if a < arrival.(p) then arrival.(p) <- a
            done
          done;
          for p = 0 to m - 1 do
            if arrival.(p) > ready.(p) then ready.(p) <- arrival.(p)
          done
        done;
        let exec = Instance.exec_row inst task in
        let best_p = ref (-1) and best_f = ref infinity in
        for p = 0 to m - 1 do
          if not detected.(p) then begin
            let r = ready.(p) and t = tail.(p) in
            let f = (if t > r then t else r) +. exec.(p) in
            if f < !best_f then begin
              best_f := f;
              best_p := p
            end
          end
        done;
        match !best_p with
        | -1 -> () (* no believed-alive processor: nowhere to go *)
        | p ->
            (* Wire the replica to every viable source.  Completed
               sources re-send their data — physically cut off if the
               holder is in fact already dead (arrival [infinity]);
               pending sources deliver on completion through the
               engine's usual message path. *)
            let src_at = !src_at in
            for pos = 0 to d - 1 do
              let vol = pred_vols.(vol_base + pos) in
              for i = src_lo.(pos) to src_lo.(pos + 1) - 1 do
                let rid = !src_rid.(i) in
                src_at.(i) <-
                  (match Engine.row_state eng rid with
                  | Row_done ->
                      let a = src_base.(i) +. (vol *. src_delay.(i).(p)) in
                      if a <= fail_times.(Engine.row_proc eng rid) then a
                      else infinity
                  | Row_running | Row_waiting -> Engine.on_completion
                  | Row_lost -> assert false)
              done
            done;
            let rep =
              Engine.inject eng ~task ~proc:p ~src_lo ~src_row:!src_rid ~src_at
            in
            let rid = Engine.rid eng ~task ~rep in
            let j = rid - n_static in
            if j = Array.length !est then est := grown !est (2 * j) 0.;
            !est.(j) <- !best_f;
            injections_per_task.(task) <- injections_per_task.(task) + 1;
            incr total_injections;
            tail.(p) <- !best_f;
            set_viable rid true;
            changed := true
      end
    end;
    !changed
  in

  (* One recovery sweep, at detection instant [now], after [fresh]
     processors were newly detected.  Tasks are visited in topological
     rank, so predecessors — including replicas injected earlier in this
     very sweep — are classified first.  The first sweep and every
     [force] sweep visit every task.  A later sweep visits only the
     cone a detection can change: the tasks with a viable row on a
     fresh processor or a viable row the engine lost since it was
     classified, and the successors of every visited task whose viable
     set changed.  Any other task would keep its viable set, kill
     nothing and inject nothing.  A row lost while the sweep runs marks
     its task for this sweep when its rank is still ahead, for the next
     one otherwise — the same sweep a full pass would see it in. *)
  let dirty = Bytes.make v '\000' in
  let mark rid =
    if is_viable rid then Bytes.set dirty rank.(Engine.row_task eng rid) '\001'
  in
  let first = ref true in
  let sweep ?(force = false) now fresh =
    let full = force || !first in
    first := false;
    Engine.drain_lost eng mark;
    List.iter (fun p -> Engine.iter_hosted eng p mark) fresh;
    let tail = Array.init m (fun p -> Float.max now (Engine.free_at eng p)) in
    for i = 0 to v - 1 do
      if full || Bytes.get dirty i <> '\000' then begin
        Bytes.set dirty i '\000';
        let task = order.(i) in
        let changed = visit ~force now tail task in
        Engine.drain_lost eng mark;
        if changed then
          for k = succ_off.(task) to succ_off.(task + 1) - 1 do
            Bytes.set dirty rank.(succ_tasks.(k)) '\001'
          done
      end
    done
  in

  List.iter
    (fun (at, procs) ->
      Engine.advance_until eng at;
      List.iter (fun p -> detected.(p) <- true) procs;
      sweep (Engine.now eng) procs)
    (Detector.instants det);
  Engine.drain eng;
  (* Post-drain repair on lossy links: as long as tasks are missing, a
     live processor remains and the sweeps still make progress (each
     round kills or injects something, both bounded), force
     re-execution of the missing work.  On reliable links a forced sweep
     can change nothing (recovery.mli), so it is not run. *)
  let complete () =
    let ok = ref true and t = ref 0 in
    while !ok && !t < v do
      let any_done = ref false in
      for rep = 0 to Engine.n_replicas eng !t - 1 do
        if Engine.row_state eng (Engine.rid eng ~task:!t ~rep) = Row_done then
          any_done := true
      done;
      ok := !any_done;
      incr t
    done;
    !ok
  in
  let progress =
    ref
      (match faults with
      | Some f -> not (Scenario.is_reliable f)
      | None -> false)
  in
  while
    !progress
    && (not (complete ()))
    && Array.exists (fun d -> not d) detected
  do
    let k0 = !total_kills and i0 = !total_injections in
    sweep ~force:true (Engine.now eng) [];
    Engine.drain eng;
    progress := !total_kills > k0 || !total_injections > i0
  done;
  let result = Engine.result eng in
  {
    result;
    degraded =
      Metrics.degraded_of_run g ~first_finish:(Event_sim.first_finish result);
    injections = !total_injections;
    kills = !total_kills;
    detected_failures = Detector.n_failures det;
  }

let run_timed ?network ?faults ?release ?delta ?rounds s timed =
  let m = Instance.n_procs (Schedule.instance s) in
  let fail_times = Array.make m infinity in
  List.iter
    (fun { Scenario.proc; at } ->
      if proc < 0 || proc >= m then invalid_arg "Recovery.run_timed";
      if Float.is_nan at then invalid_arg "Recovery.run_timed: NaN instant";
      fail_times.(proc) <- Float.min fail_times.(proc) at)
    timed;
  run ?network ?faults ?release ?delta ?rounds s ~fail_times

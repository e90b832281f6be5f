(* The per-task-list recovery controller: the pre-flat {!Recovery}
   implementation, kept verbatim as a differential baseline.  Its sweep
   re-walks every task at each detection instant, keeps viability as
   [int list]s per task, estimated finishes and injected wiring in two
   polymorphic [(task, rep)] Hashtbls, reads replicas through the
   allocating [Engine.replica_state], and re-prices every source of
   every in-edge for each candidate processor of the eq. (1) placement.
   {!Recovery.run} must return a structurally equal outcome on every
   run — the recovery tests, the fuzzer and the scale oracle compare
   the two.  Keep this file frozen; behavioural changes belong in
   {!Recovery}.  The one edit since it froze: its [inject] call turns
   each input's source list (a source row and an arrival, or
   [Engine.on_completion]) into the engine's flat source columns. *)

module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan
module Metrics = Ftsched_schedule.Metrics
module Event_sim = Ftsched_sim.Event_sim
module Scenario = Ftsched_sim.Scenario
module Engine = Event_sim.Engine

module Recovery = Ftsched_recovery.Recovery
module Detector = Ftsched_recovery.Detector

type outcome = Recovery.outcome = {
  result : Event_sim.result;
  degraded : Metrics.degraded;
  injections : int;
  kills : int;
  detected_failures : int;
}

let run ?network ?faults ?release ?(delta = 0.) ?rounds s ~fail_times =
  let inst = Schedule.instance s in
  let g = Instance.dag inst in
  let pl = Instance.platform inst in
  let m = Instance.n_procs inst in
  let v = Dag.n_tasks g in
  let eps = Schedule.eps s in
  let plan = Schedule.comm s in
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
  let pred_off = Dag.Csr.pred_offsets g in
  let pred_edges = Dag.Csr.pred_edges g and pred_tasks = Dag.Csr.pred_tasks g in
  let pred_vols = Dag.Csr.pred_volumes g in
  let detected = Array.make m false in
  (* Per-replica potential input sources, as (src_task, src_rep) lists per
     in-edge position: the communication plan for static replicas, our
     own wiring for injected ones. *)
  let injected_sources : (int * int, (int * int) list array) Hashtbl.t =
    Hashtbl.create 16
  in
  let sources_of task rep pos =
    if rep <= eps then
      let k = pred_off.(task) + pos in
      let src = pred_tasks.(k) in
      List.map
        (fun sr -> (src, sr))
        (Plan_view.senders_to plan ~eps pred_edges.(k) ~dst_replica:rep)
    else (Hashtbl.find injected_sources (task, rep)).(pos)
  in
  (* Estimated completion of a not-yet-finished replica, for the eq. (1)
     placement rule only: the static schedule's optimistic finish, or the
     estimate computed when the replica was injected. *)
  let est_finish_tbl : (int * int, float) Hashtbl.t = Hashtbl.create 16 in
  let est_finish task rep =
    match Engine.replica_state eng ~task ~rep with
    | Done { finish; _ } | Running { finish; _ } -> finish
    | Waiting | Lost_replica -> (
        match Hashtbl.find_opt est_finish_tbl (task, rep) with
        | Some f -> f
        | None -> (Schedule.replica s task rep).Schedule.finish)
  in
  let injections_per_task = Array.make v 0 in
  let total_injections = ref 0 and total_kills = ref 0 in

  (* One recovery sweep, at detection instant [now].  [force] is the
     post-drain repair mode: the engine has quiesced with work missing
     (e.g. an injected replica stuck behind a queue-order wait cycle), so
     still-waiting replicas are written off wholesale and replacements are
     wired to completed (or freshly injected) sources only — a serial
     re-execution of whatever is missing, which cannot deadlock. *)
  let sweep ?(force = false) now =
    (* Viable replicas per task: completed on a believed-alive processor,
       running, or waiting with every input either already delivered or
       coverable by a viable predecessor replica.  Computed in
       topological order so that predecessors — including replicas
       injected earlier in this very sweep — are classified first. *)
    let viable = Array.make v [] in
    (* Believed availability per processor, to price multiple injections
       landing on the same processor within one sweep.  Queued
       not-yet-started static work is deliberately not priced — the rule
       stays a cheap list-scheduling heuristic. *)
    let tail = Array.init m (fun p -> Float.max now (Engine.free_at eng p)) in
    Array.iter
      (fun task ->
        let n = Engine.n_replicas eng task in
        let vs = ref [] and kills = ref [] and task_done = ref false in
        for rep = n - 1 downto 0 do
          let proc = Engine.replica_proc eng ~task ~rep in
          match Engine.replica_state eng ~task ~rep with
          | Done _ ->
              task_done := true;
              if not detected.(proc) then vs := rep :: !vs
          | Running _ -> if not detected.(proc) then vs := rep :: !vs
          | Lost_replica -> ()
          | Waiting ->
              let rec inputs_covered pos =
                pos >= Dag.in_degree g task
                || (Engine.input_satisfied eng ~task ~rep ~pos
                    || List.exists
                         (fun (st, sr) -> List.mem sr viable.(st))
                         (sources_of task rep pos))
                   && inputs_covered (pos + 1)
              in
              let ok =
                (not force) && (not detected.(proc)) && inputs_covered 0
              in
              if ok then vs := rep :: !vs else kills := rep :: !kills
        done;
        List.iter
          (fun rep ->
            Engine.kill_replica eng ~task ~rep;
            incr total_kills)
          !kills;
        (* Re-map when no viable replica remains.  A completed exit task
           needs no replacement (its result is already achieved and
           nobody consumes it); a completed inner task is conservatively
           re-executed, since replicas injected downstream later in this
           sweep would need its data re-sent from a live processor. *)
        if
          !vs = []
          && not (!task_done && Dag.out_degree g task = 0)
          && injections_per_task.(task) < rounds
        then begin
          (* Re-filter the predecessors' viable lists against the current
             engine state: the kills above may have cascaded into a
             replica classified viable moments ago (a queue on a
             dead-but-undetected processor unblocking into a loss). *)
          let pos_sources =
            Array.init (Dag.in_degree g task) (fun pos ->
                let k = pred_off.(task) + pos in
                let src = pred_tasks.(k) in
                let srcs =
                  List.filter
                    (fun sr ->
                      Engine.replica_state eng ~task:src ~rep:sr
                      <> Event_sim.Lost_replica)
                    viable.(src)
                in
                (src, srcs, pred_vols.(k)))
          in
          if Array.for_all (fun (_, l, _) -> l <> []) pos_sources then begin
            (* eq. (1) restricted to remaining work: minimize the
               estimated finish over believed-alive processors.  The
               estimate uses detector knowledge only — a source on a
               dead-but-undetected processor is priced as if alive. *)
            let est_arrival src sr vol p =
              let sp = Engine.replica_proc eng ~task:src ~rep:sr in
              let w = vol *. Platform.delay pl sp p in
              match Engine.replica_state eng ~task:src ~rep:sr with
              | Done { finish; _ } -> Float.max now finish +. w
              | Running { finish; _ } -> finish +. w
              | Waiting | Lost_replica -> Float.max now (est_finish src sr) +. w
            in
            let best_p = ref (-1) and best_f = ref infinity in
            for p = 0 to m - 1 do
              if not detected.(p) then begin
                let ready = ref 0. in
                Array.iter
                  (fun (src, srcs, vol) ->
                    let a =
                      List.fold_left
                        (fun acc sr -> Float.min acc (est_arrival src sr vol p))
                        infinity srcs
                    in
                    ready := Float.max !ready a)
                  pos_sources;
                let start = Float.max !ready tail.(p) in
                let f = start +. Instance.exec inst task p in
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
                let inputs =
                  Array.map
                    (fun (src, srcs, vol) ->
                      List.map
                        (fun sr ->
                          match Engine.replica_state eng ~task:src ~rep:sr with
                          | Done { finish; _ } ->
                              let sp =
                                Engine.replica_proc eng ~task:src ~rep:sr
                              in
                              let w = vol *. Platform.delay pl sp p in
                              let depart = Float.max now finish in
                              let arrival =
                                if depart +. w <= fail_times.(sp) then
                                  depart +. w
                                else infinity
                              in
                              (Engine.rid eng ~task:src ~rep:sr, arrival)
                          | Running _ | Waiting ->
                              ( Engine.rid eng ~task:src ~rep:sr,
                                Engine.on_completion )
                          | Lost_replica -> assert false)
                        srcs)
                    pos_sources
                in
                (* the lists as the engine's source columns *)
                let flat = List.concat (Array.to_list inputs) in
                let src_lo = Array.make (Array.length inputs + 1) 0 in
                Array.iteri
                  (fun pos l -> src_lo.(pos + 1) <- src_lo.(pos) + List.length l)
                  inputs;
                let rep =
                  Engine.inject eng ~task ~proc:p ~src_lo
                    ~src_row:(Array.of_list (List.map fst flat))
                    ~src_at:(Array.of_list (List.map snd flat))
                in
                Hashtbl.replace injected_sources (task, rep)
                  (Array.map
                     (fun (src, srcs, _) -> List.map (fun sr -> (src, sr)) srcs)
                     pos_sources);
                Hashtbl.replace est_finish_tbl (task, rep) !best_f;
                injections_per_task.(task) <- injections_per_task.(task) + 1;
                incr total_injections;
                tail.(p) <- !best_f;
                vs := [ rep ]
          end
        end;
        viable.(task) <- !vs)
      (Dag.topological_order g)
  in

  List.iter
    (fun (at, procs) ->
      Engine.advance_until eng at;
      List.iter (fun p -> detected.(p) <- true) procs;
      sweep (Engine.now eng))
    (Detector.instants det);
  Engine.drain eng;
  (* Post-drain repair: as long as tasks are missing, a live processor
     remains and the sweeps still make progress (each round kills or
     injects something, both bounded), force re-execution of the missing
     work.  In the common case the loop body never runs. *)
  let complete () =
    let ok = ref true in
    for t = 0 to v - 1 do
      let n = Engine.n_replicas eng t in
      let any_done = ref false in
      for rep = 0 to n - 1 do
        match Engine.replica_state eng ~task:t ~rep with
        | Done _ -> any_done := true
        | Waiting | Running _ | Lost_replica -> ()
      done;
      if not !any_done then ok := false
    done;
    !ok
  in
  let progress = ref true in
  while
    !progress
    && (not (complete ()))
    && Array.exists (fun d -> not d) detected
  do
    let k0 = !total_kills and i0 = !total_injections in
    sweep ~force:true (Engine.now eng);
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
      fail_times.(proc) <- Float.min fail_times.(proc) at)
    timed;
  run ?network ?faults ?release ?delta ?rounds s ~fail_times

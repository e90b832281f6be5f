module Rng = Ftsched_util.Rng
module Table = Ftsched_util.Table
module Dag = Ftsched_dag.Dag
module Generators = Ftsched_dag.Generators
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Metrics = Ftsched_schedule.Metrics
module Driver = Ftsched_kernel.Driver
module Ftsa = Ftsched_core.Ftsa
module Event_sim = Ftsched_sim.Event_sim
module Scenario = Ftsched_sim.Scenario
module Recovery = Ftsched_recovery.Recovery
module Par = Ftsched_par.Par

type chaos = {
  crash_rate : float;
  downtime : float;
  outage_rate : float;
  outage_len : float;
  loss : float;
}

let no_chaos =
  { crash_rate = 0.; downtime = 0.; outage_rate = 0.; outage_len = 0.; loss = 0. }

let default_chaos =
  {
    crash_rate = 0.05;
    downtime = 10.;
    outage_rate = 0.01;
    outage_len = 2.;
    loss = 0.;
  }

type config = {
  m : int;
  rate : float;
  duration : float;
  eps : int;
  capacity : int;
  slack : float * float;
  delta : float;
  chaos : chaos;
  shadow : bool;
  tasks : int * int;
}

let default_config =
  {
    m = 8;
    rate = 0.5;
    duration = 100.;
    eps = 1;
    capacity = 8;
    slack = (2., 4.);
    delta = 1.;
    chaos = no_chaos;
    shadow = true;
    tasks = (3, 8);
  }

type shadow_status = No_shadow | Fault_free | Shadow_hit | Shadow_stale

let shadow_status_name = function
  | No_shadow -> "no-shadow"
  | Fault_free -> "fault-free"
  | Shadow_hit -> "hit"
  | Shadow_stale -> "stale"

type abort_reason = Defeated of { completed_tasks : int; total_tasks : int }

type degrade_reason =
  | Late of { finish : float }
  | Partial of {
      completed_tasks : int;
      total_tasks : int;
      completed_sinks : int;
      total_sinks : int;
    }
  | Without_tolerance of { finish : float; eps_planned : int }

type fate =
  | Completed of { finish : float }
  | Degraded of degrade_reason
  | Rejected of Admission.reject_reason
  | Aborted of abort_reason

let pp_fate ppf = function
  | Completed { finish } -> Format.fprintf ppf "completed @@ %.6g" finish
  | Degraded (Late { finish }) ->
      Format.fprintf ppf "degraded: late (finish %.6g)" finish
  | Degraded (Partial { completed_tasks; total_tasks; completed_sinks; total_sinks })
    ->
      Format.fprintf ppf "degraded: partial (%d/%d tasks, %d/%d sinks)"
        completed_tasks total_tasks completed_sinks total_sinks
  | Degraded (Without_tolerance { finish; eps_planned }) ->
      Format.fprintf ppf "degraded: eps %d only (finish %.6g)" eps_planned finish
  | Rejected r -> Format.fprintf ppf "rejected: %a" Admission.pp_reject r
  | Aborted (Defeated { completed_tasks; total_tasks }) ->
      Format.fprintf ppf "aborted: defeated (%d/%d tasks)" completed_tasks
        total_tasks

type job = {
  id : int;
  arrival : float;
  deadline : float;
  n_tasks : int;
  eps_planned : int option;
  crashes_seen : int;
  shadow : shadow_status;
  fate : fate;
}

type totals = {
  submitted : int;
  admitted : int;
  rejected : int;
  completed : int;
  degraded : int;
  aborted : int;
  deadline_misses : int;
  shadow_hits : int;
  shadow_stale : int;
  crash_events : int;
  outage_events : int;
  mean_response : float;
  throughput : float;
}

type report = { seed : int; jobs : job list; totals : totals }

(* ------------------------------------------------------------------ *)
(* Config validation (shared by run_trace and the CLI)                 *)

let check_pos name v =
  if not (v > 0. && v < infinity) then
    invalid_arg (Printf.sprintf "Stream: %s must be finite and > 0" name)

let check_nonneg name v =
  if not (v >= 0. && v < infinity) then
    invalid_arg (Printf.sprintf "Stream: %s must be finite and >= 0" name)

let validate_config c =
  if c.m <= 0 then invalid_arg "Stream: m must be > 0";
  check_pos "rate" c.rate;
  check_pos "duration" c.duration;
  if c.eps < 0 || c.eps >= c.m then
    invalid_arg "Stream: eps must lie in [0, m)";
  if c.capacity <= 0 then invalid_arg "Stream: capacity must be > 0";
  let slo, shi = c.slack in
  if not (slo > 0. && shi >= slo && shi < infinity) then
    invalid_arg "Stream: slack range must satisfy 0 < lo <= hi";
  check_nonneg "delta" c.delta;
  check_nonneg "crash rate" c.chaos.crash_rate;
  check_nonneg "downtime" c.chaos.downtime;
  check_nonneg "outage rate" c.chaos.outage_rate;
  if c.chaos.outage_rate > 0. then check_pos "outage length" c.chaos.outage_len;
  if not (c.chaos.loss >= 0. && c.chaos.loss <= 1.) then
    invalid_arg "Stream: loss must lie in [0, 1]";
  let tlo, thi = c.tasks in
  if tlo < 1 || thi < tlo then
    invalid_arg "Stream: task range must satisfy 1 <= lo <= hi"

(* ------------------------------------------------------------------ *)
(* Seeded trace generation                                             *)

(* Chaos events over the whole trace.  Crashes strike up to twice the
   arrival window so that late-arriving jobs still face failures during
   their execution overruns. *)
type crash_event = { at : float; proc : int }
type outage_event = { o_at : float; o_src : int; o_dst : int }

let poisson_times rng ~rate ~horizon =
  if rate <= 0. then []
  else begin
    let acc = ref [] and t = ref (Rng.exponential rng ~mean:(1. /. rate)) in
    while !t < horizon do
      acc := !t :: !acc;
      t := !t +. Rng.exponential rng ~mean:(1. /. rate)
    done;
    List.rev !acc
  end

let gen_crashes rng ~m ~chaos ~horizon =
  List.map
    (fun at -> { at; proc = Rng.int rng m })
    (poisson_times rng ~rate:chaos.crash_rate ~horizon)

let gen_outages rng ~m ~chaos ~horizon =
  if m < 2 then []
  else
    List.map
      (fun o_at ->
        let o_src = Rng.int rng m in
        let d = Rng.int rng (m - 1) in
        let o_dst = if d >= o_src then d + 1 else d in
        { o_at; o_src; o_dst })
      (poisson_times rng ~rate:chaos.outage_rate ~horizon)

(* Per-job random DAG, mirroring the fuzz harness's family mix but with
   light tasks (sub-unit weights, sub-unit volumes) so that jobs finish
   within a few time units and short smoke streams are meaningful. *)
let gen_instance rng ~platform ~tasks:(tlo, thi) =
  let n = Rng.int_in rng tlo thi in
  let volume = Generators.Uniform_volume (0.1, 0.5) in
  let dag =
    match Rng.int rng 5 with
    | 0 -> Generators.layered rng ~n_tasks:n ~volume ()
    | 1 -> Generators.erdos_renyi rng ~n_tasks:n ~edge_prob:0.3 ~volume ()
    | 2 ->
        Generators.fork_join rng
          ~stages:(1 + (n / 6))
          ~width:(2 + Rng.int rng 3)
          ~volume ()
    | 3 -> Generators.random_out_tree rng ~n_tasks:n ~max_children:3 ~volume ()
    | _ -> Generators.chain rng ~n_tasks:n ~volume ()
  in
  Instance.random_exec rng ~dag ~platform ~task_weight:(0.5, 1.5) ()

(* ------------------------------------------------------------------ *)
(* Execution of one admitted job under the chaos trace                 *)

let used_procs m schedule =
  let used = ref [] in
  for p = m - 1 downto 0 do
    if Array.length (Schedule.timeline schedule p) > 0 then used := p :: !used
  done;
  !used

let first_planned_start schedule p =
  Array.fold_left
    (fun acc (r : Schedule.replica) -> Float.min acc r.start)
    infinity
    (Schedule.timeline schedule p)

(* Classify an execution into a typed fate.  [degraded] describes the
   completed subset when the run did not complete every task. *)
let classify ~arrival ~deadline ~(plan : Admission.plan) ~latency
    ~(degraded : Metrics.degraded) =
  match latency with
  | Some l ->
      let finish = arrival +. l in
      if finish <= deadline then
        if plan.Admission.degraded_admission then
          Degraded
            (Without_tolerance { finish; eps_planned = plan.Admission.eps_planned })
        else Completed { finish }
      else Degraded (Late { finish })
  | None ->
      if degraded.Metrics.completed_sinks <> [] then
        Degraded
          (Partial
             {
               completed_tasks = degraded.Metrics.completed_tasks;
               total_tasks = degraded.Metrics.total_tasks;
               completed_sinks = List.length degraded.Metrics.completed_sinks;
               total_sinks = degraded.Metrics.total_sinks;
             })
      else
        Aborted
          (Defeated
             {
               completed_tasks = degraded.Metrics.completed_tasks;
               total_tasks = degraded.Metrics.total_tasks;
             })

(* One pass over the job list accumulates every counter; the response
   sum folds in job order, so the mean is the bit-for-bit float the old
   per-fate [List.filter] scans produced. *)
let totals_of_jobs jobs ~duration ~crash_events ~outage_events =
  let submitted = ref 0 and rejected = ref 0 and completed = ref 0 in
  let degraded = ref 0 and aborted = ref 0 and deadline_misses = ref 0 in
  let shadow_hits = ref 0 and shadow_stale = ref 0 in
  let on_time = ref 0 and response_sum = ref 0. in
  List.iter
    (fun j ->
      incr submitted;
      (match j.fate with
      | Rejected _ -> incr rejected
      | Completed _ -> incr completed
      | Degraded _ -> incr degraded
      | Aborted _ -> incr aborted);
      (match j.fate with
      | Degraded (Late _ | Partial _) | Aborted _ -> incr deadline_misses
      | _ -> ());
      (match j.fate with
      | Completed { finish } | Degraded (Without_tolerance { finish; _ }) ->
          incr on_time;
          response_sum := !response_sum +. (finish -. j.arrival)
      | _ -> ());
      (match j.shadow with
      | Shadow_hit -> incr shadow_hits
      | Shadow_stale -> incr shadow_stale
      | _ -> ()))
    jobs;
  let mean_response =
    if !on_time = 0 then 0. else !response_sum /. float_of_int !on_time
  in
  {
    submitted = !submitted;
    admitted = !submitted - !rejected;
    rejected = !rejected;
    completed = !completed;
    degraded = !degraded;
    aborted = !aborted;
    deadline_misses = !deadline_misses;
    shadow_hits = !shadow_hits;
    shadow_stale = !shadow_stale;
    crash_events;
    outage_events;
    mean_response;
    throughput = float_of_int !on_time /. duration;
  }

let run_trace ?(config = default_config) ~seed () =
  validate_config config;
  let c = config in
  let base = (1_000_003 * seed) + 71 in
  let arrivals_rng = Rng.create ~seed:(base + 1) in
  let chaos_rng = Rng.create ~seed:(base + 2) in
  let platform_rng = Rng.create ~seed:(base + 3) in
  let platform =
    Platform.random platform_rng ~m:c.m ~delay_lo:0.5 ~delay_hi:1.0 ()
  in
  let horizon = 2. *. c.duration in
  let crashes = gen_crashes chaos_rng ~m:c.m ~chaos:c.chaos ~horizon in
  let outages = gen_outages chaos_rng ~m:c.m ~chaos:c.chaos ~horizon in
  let arrivals = poisson_times arrivals_rng ~rate:c.rate ~horizon:c.duration in
  let ctrl = Admission.create ~m:c.m ~capacity:c.capacity in
  (* Warm-start arena, owned by this trace: jobs run sequentially within
     a trace (campaign parallelism is across traces), so one scheduling
     workspace serves the isolated-makespan probe and the whole admission
     ladder. *)
  let sched_ws = Driver.workspace () in
  let run_job idx arrival =
    let job_seed = base + 100 + (13 * idx) in
    let job_rng = Rng.create ~seed:job_seed in
    let inst = gen_instance job_rng ~platform ~tasks:c.tasks in
    let n_tasks = Instance.n_tasks inst in
    (* Deadline: slack times the job's isolated guaranteed makespan. *)
    let iso = Ftsa.schedule ~seed:job_seed ~workspace:sched_ws inst ~eps:c.eps in
    let m_iso = Schedule.latency_upper_bound iso in
    let slo, shi = c.slack in
    let deadline = arrival +. (Rng.float_in job_rng slo shi *. m_iso) in
    (* Admission knowledge: detected crashes whose downtime covers the
       arrival instant push the processor's residual tail to the reboot. *)
    List.iter
      (fun { at; proc } ->
        if at <= arrival && arrival < at +. c.chaos.downtime
           && arrival >= at +. c.delta
        then Admission.occupy ctrl ~proc ~until:(at +. c.chaos.downtime))
      crashes;
    (* Chaos relative to this job's window: fail instants per processor
       (undetected processors that are already down fail at 0;
       in-window crashes fail at their strike instant; no reboot within
       a single job's execution — conservative) and outage windows
       clipped to the job. *)
    let fail_times = Array.make c.m infinity in
    let crashes_seen = ref 0 in
    List.iter
      (fun { at; proc } ->
        let rel =
          if at <= arrival && arrival < at +. c.chaos.downtime
             && arrival < at +. c.delta
          then Some 0.
          else if arrival <= at && at < deadline then Some (at -. arrival)
          else None
        in
        match rel with
        | Some r ->
            incr crashes_seen;
            fail_times.(proc) <- Float.min fail_times.(proc) r
        | None -> ())
      crashes;
    let rel_outages =
      List.filter_map
        (fun { o_at; o_src; o_dst } ->
          let from_t = Float.max 0. (o_at -. arrival) in
          let until_t = o_at +. c.chaos.outage_len -. arrival in
          if until_t > 0. && o_at < deadline then
            Some (Scenario.outage ~src:o_src ~dst:o_dst ~from_t ~until_t)
          else None)
        outages
    in
    let faults =
      if c.chaos.loss = 0. && rel_outages = [] then Scenario.reliable
      else
        Scenario.lossy ~loss:c.chaos.loss ~outages:rel_outages ~retries:3
          ~seed:(job_seed + 7) ()
    in
    match
      Admission.try_admit ~workspace:sched_ws ctrl ~now:arrival ~deadline
        ~eps:c.eps ~seed:job_seed inst
    with
    | Error reason ->
        {
          id = idx;
          arrival;
          deadline;
          n_tasks;
          eps_planned = None;
          crashes_seen = !crashes_seen;
          shadow = No_shadow;
          fate = Rejected reason;
        }
    | Ok plan ->
        let s = plan.Admission.schedule in
        let release = plan.Admission.release in
        let used = used_procs c.m s in
        (* Shadow plans: one precomputed single-processor-loss recovery
           per processor the plan uses, computed before any failure.  An
           entry is usable only if the precomputed reaction completes
           the whole job.  Each run builds its own engine from the plan:
           the engine keeps no per-message table, so there is nothing to
           share between the runs. *)
        let shadow_entries =
          if not c.shadow then []
          else
            List.filter
              (fun p ->
                let ft = Array.make c.m infinity in
                ft.(p) <- 0.;
                let o =
                  Recovery.run ~release ~delta:0. s ~fail_times:ft
                in
                o.Recovery.degraded.Metrics.complete)
              used
        in
        let relevant = List.filter (fun p -> fail_times.(p) < infinity) used in
        let status, latency, degraded =
          if not c.shadow then begin
            (* Static execution: the eps+1-replicated plan, no online
               reaction at all. *)
            let r = Event_sim.run ~faults ~release s ~fail_times in
            let d =
              Metrics.degraded_of_run (Instance.dag inst)
                ~first_finish:(Event_sim.first_finish r)
            in
            (No_shadow, r.Event_sim.latency, d)
          end
          else begin
            let status =
              match relevant with
              | [] -> Fault_free
              | [ p ]
                when List.mem p shadow_entries
                     && fail_times.(p) <= first_planned_start s p ->
                  (* The single crash matches the precomputed assumption:
                     processor lost before it contributed anything. *)
                  Shadow_hit
              | _ -> Shadow_stale
            in
            let delta =
              match status with Shadow_stale -> c.delta | _ -> 0.
            in
            let o =
              Recovery.run ~faults ~release ~delta s ~fail_times
            in
            (status, o.Recovery.result.Event_sim.latency, o.Recovery.degraded)
          end
        in
        {
          id = idx;
          arrival;
          deadline;
          n_tasks;
          eps_planned = Some plan.Admission.eps_planned;
          crashes_seen = !crashes_seen;
          shadow = status;
          fate = classify ~arrival ~deadline ~plan ~latency ~degraded;
        }
  in
  let jobs = List.mapi run_job arrivals in
  let totals =
    totals_of_jobs jobs ~duration:c.duration
      ~crash_events:(List.length crashes)
      ~outage_events:(List.length outages)
  in
  { seed; jobs; totals }

(* ------------------------------------------------------------------ *)
(* The never-lost oracle                                               *)

let check_report r =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  List.iteri
    (fun i j ->
      if j.id <> i then err "job %d: id %d out of order" i j.id;
      if not (j.deadline > j.arrival) then
        err "job %d: deadline %.6g not after arrival %.6g" j.id j.deadline
          j.arrival;
      (match (j.fate, j.eps_planned) with
      | Rejected _, Some _ ->
          err "job %d: rejected but carries a provisioned eps" j.id
      | Rejected _, None -> ()
      | _, None -> err "job %d: admitted without a provisioned eps" j.id
      | _, Some e when e < 0 -> err "job %d: negative provisioned eps" j.id
      | _, Some _ -> ());
      (match j.fate with
      | Completed { finish } ->
          if finish > j.deadline then
            err "job %d: completed at %.6g past deadline %.6g" j.id finish
              j.deadline
      | Degraded (Without_tolerance { finish; eps_planned }) ->
          if finish > j.deadline then
            err "job %d: without-tolerance finish %.6g past deadline %.6g" j.id
              finish j.deadline;
          if j.eps_planned <> Some eps_planned then
            err "job %d: fate eps %d disagrees with job eps" j.id eps_planned
      | Degraded (Late { finish }) ->
          if finish <= j.deadline then
            err "job %d: late fate but finish %.6g meets deadline %.6g" j.id
              finish j.deadline
      | Degraded (Partial { completed_sinks; total_sinks; _ }) ->
          if completed_sinks <= 0 || completed_sinks > total_sinks then
            err "job %d: partial fate with %d/%d sinks" j.id completed_sinks
              total_sinks
      | Aborted (Defeated { completed_tasks; total_tasks }) ->
          if completed_tasks >= total_tasks then
            err "job %d: defeated yet all %d tasks completed" j.id total_tasks
      | Rejected (Admission.Backpressure { inflight; capacity }) ->
          if inflight < capacity then
            err "job %d: backpressure with %d < capacity %d in flight" j.id
              inflight capacity
      | Rejected (Admission.Deadline_infeasible { needed; deadline }) ->
          if needed <= deadline then
            err "job %d: infeasible-deadline reject but %.6g <= %.6g" j.id
              needed deadline))
    r.jobs;
  let t = r.totals in
  if t.submitted <> List.length r.jobs then
    err "totals: submitted %d but %d jobs recorded" t.submitted
      (List.length r.jobs);
  if t.submitted <> t.admitted + t.rejected then
    err "totals: submitted %d <> admitted %d + rejected %d" t.submitted
      t.admitted t.rejected;
  if t.admitted <> t.completed + t.degraded + t.aborted then
    err "totals: admitted %d <> completed %d + degraded %d + aborted %d"
      t.admitted t.completed t.degraded t.aborted;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Campaigns and rendering                                             *)

let campaign ?config ?jobs ~seeds () =
  if seeds <= 0 then invalid_arg "Stream.campaign: seeds must be > 0";
  Par.parallel_init ?jobs seeds (fun seed -> run_trace ?config ~seed ())

let merge_totals reports =
  if reports = [] then invalid_arg "Stream.merge_totals: empty campaign";
  let jobs = List.concat_map (fun r -> r.jobs) reports in
  let crash_events =
    List.fold_left (fun a r -> a + r.totals.crash_events) 0 reports
  in
  let outage_events =
    List.fold_left (fun a r -> a + r.totals.outage_events) 0 reports
  in
  let t = totals_of_jobs jobs ~duration:1. ~crash_events ~outage_events in
  let throughput =
    List.fold_left (fun a r -> a +. r.totals.throughput) 0. reports
    /. float_of_int (List.length reports)
  in
  { t with throughput }

let pp_totals ppf t =
  Format.fprintf ppf
    "@[<v>submitted %d = admitted %d + rejected %d@,\
     admitted %d = completed %d + degraded %d + aborted %d@,\
     deadline misses %d  shadow hits %d  stale %d@,\
     chaos: %d crashes, %d outages@,\
     throughput %.4g jobs/unit  mean response %.4g@]"
    t.submitted t.admitted t.rejected t.admitted t.completed t.degraded
    t.aborted t.deadline_misses t.shadow_hits t.shadow_stale t.crash_events
    t.outage_events t.throughput t.mean_response

let pp_job ppf j =
  Format.fprintf ppf
    "job %3d  arr %8.4f  ddl %8.4f  tasks %2d  eps %s  crashes %d  shadow \
     %-10s  %a"
    j.id j.arrival j.deadline j.n_tasks
    (match j.eps_planned with Some e -> string_of_int e | None -> "-")
    j.crashes_seen
    (shadow_status_name j.shadow)
    pp_fate j.fate

let pp_report ppf r =
  Format.fprintf ppf "@[<v>stream trace seed %d@,%a@,%a@]" r.seed
    (Format.pp_print_list pp_job)
    r.jobs pp_totals r.totals

let report_digest r =
  Digest.to_hex (Digest.string (Format.asprintf "%a" pp_report r))

let totals_table rows =
  let tbl =
    Table.create
      ~columns:
        [
          "run";
          "submitted";
          "admitted";
          "rejected";
          "completed";
          "degraded";
          "aborted";
          "miss ratio";
          "shadow hits";
          "stale";
          "throughput";
          "mean resp";
        ]
  in
  List.iter
    (fun (label, t) ->
      let miss_ratio =
        if t.admitted = 0 then 0.
        else float_of_int t.deadline_misses /. float_of_int t.admitted
      in
      Table.add_row tbl
        [
          label;
          string_of_int t.submitted;
          string_of_int t.admitted;
          string_of_int t.rejected;
          string_of_int t.completed;
          string_of_int t.degraded;
          string_of_int t.aborted;
          Printf.sprintf "%.3f" miss_ratio;
          string_of_int t.shadow_hits;
          string_of_int t.shadow_stale;
          Printf.sprintf "%.4g" t.throughput;
          Printf.sprintf "%.4g" t.mean_response;
        ])
    rows;
  tbl

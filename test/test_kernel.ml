(* lib/kernel: Proc_state timeline properties, the trace sink, and a
   differential harness running every scheduler through the shared
   driver on seeded instances. *)

module Proc_state = Ftsched_kernel.Proc_state
module Trace = Ftsched_kernel.Trace
module Metrics = Ftsched_schedule.Metrics
module Driver = Ftsched_kernel.Driver
module Ftsa = Ftsched_core.Ftsa
module Mc_ftsa = Ftsched_core.Mc_ftsa
module Workload = Ftsched_exp.Workload
open Helpers

(* ------------------------------------------------------------------ *)
(* Proc_state                                                          *)

(* A workload is a list of (ready, duration) requests against one
   insertion timeline; encoded over small ints for stable shrinking. *)
let workload_arb =
  QCheck.(
    list_of_size
      Gen.(int_range 1 60)
      (pair (int_bound 500) (int_bound 60)))

let decode (r, d) = (float_of_int r /. 10., float_of_int (d + 1) /. 10.)

let prop_gap_no_overlap =
  QCheck.Test.make ~name:"earliest gap never overlaps committed slots"
    ~count:300 workload_arb (fun ops ->
      let ps = Proc_state.create ~m:1 ~insertion:true in
      List.for_all
        (fun op ->
          let ready, duration = decode op in
          let start = Proc_state.earliest_gap ps 0 ~ready ~duration in
          let before = Proc_state.slots ps 0 in
          let finish = start +. duration in
          let ok =
            Array.for_all
              (fun (s, f) -> finish <= s || f <= start)
              before
          in
          Proc_state.commit_slot ps 0 ~start ~finish ~pess_finish:finish;
          ok)
        ops)

let prop_gap_after_ready =
  QCheck.Test.make ~name:"earliest gap never starts before ready" ~count:300
    workload_arb (fun ops ->
      let ps = Proc_state.create ~m:1 ~insertion:true in
      List.for_all
        (fun op ->
          let ready, duration = decode op in
          let start = Proc_state.earliest_gap ps 0 ~ready ~duration in
          Proc_state.commit_slot ps 0 ~start ~finish:(start +. duration)
            ~pess_finish:(start +. duration);
          start >= ready)
        ops)

let prop_slots_sorted_disjoint =
  QCheck.Test.make ~name:"committed slots stay sorted and disjoint" ~count:300
    workload_arb (fun ops ->
      let ps = Proc_state.create ~m:1 ~insertion:true in
      List.iter
        (fun op ->
          let ready, duration = decode op in
          let start = Proc_state.earliest_gap ps 0 ~ready ~duration in
          Proc_state.commit_slot ps 0 ~start ~finish:(start +. duration)
            ~pess_finish:(start +. duration))
        ops;
      let slots = Proc_state.slots ps 0 in
      let ok = ref true in
      Array.iteri
        (fun i (s, f) ->
          if f < s then ok := false;
          if i > 0 then begin
            let _, pf = slots.(i - 1) in
            if s < pf then ok := false
          end)
        slots;
      !ok)

let test_ready_times () =
  let ps = Proc_state.create ~m:2 ~insertion:false in
  Proc_state.commit_slot ps 0 ~start:1. ~finish:5. ~pess_finish:7.;
  Proc_state.commit_slot ps 0 ~start:0. ~finish:3. ~pess_finish:4.;
  check_float "ready_opt keeps the max" 5. (Proc_state.ready_opt ps).(0);
  check_float "ready_pess keeps the max" 7. (Proc_state.ready_pess ps).(0);
  check_float "other processor untouched" 0. (Proc_state.ready_opt ps).(1);
  Alcotest.check_raises "no gap search without insertion"
    (Invalid_argument "Proc_state.earliest_gap: non-insertion state") (fun () ->
      ignore (Proc_state.earliest_gap ps 0 ~ready:0. ~duration:1.))

(* ------------------------------------------------------------------ *)
(* Differential harness: every scheduler through the kernel driver.    *)

(* Every scheduler of the catalogue, on several seeded instances, must
   produce a schedule the validator accepts — and the trace must agree
   with the schedule on the decisions taken. *)
let test_differential () =
  List.iter
    (fun seed ->
      let m = 6 and eps = 1 in
      let inst = random_instance ~n_tasks:30 ~m ~seed () in
      let v = Instance.n_tasks inst in
      List.iter
        (fun { Ftsched_core.Schedulers.name; run } ->
          let trace = Trace.create () in
          let s = run ~trace ~seed:7 inst ~eps in
          (match Validate.check s with
          | Ok () -> ()
          | Error errs ->
              Alcotest.failf "%s seed=%d: %d validation error(s), first: %a"
                name seed (List.length errs) Validate.pp_error (List.hd errs));
          let steps = Trace.steps trace in
          check_int (name ^ " traces every task") v (List.length steps);
          (* each step's chosen replicas must be the schedule's replicas *)
          List.iter
            (fun (st : Trace.step) ->
              let reps = Schedule.replicas s st.Trace.task in
              check_int
                (Printf.sprintf "%s task %d replica count" name st.Trace.task)
                (Array.length reps)
                (Array.length st.Trace.chosen);
              Array.iteri
                (fun i (c : Trace.replica) ->
                  check_bool
                    (Printf.sprintf "%s task %d replica %d matches" name
                       st.Trace.task i)
                    true
                    (c.Trace.proc = reps.(i).Schedule.proc
                    && c.Trace.start = reps.(i).Schedule.start
                    && c.Trace.finish = reps.(i).Schedule.finish))
                st.Trace.chosen)
            steps)
        Ftsched_core.Schedulers.all)
    [ 1; 2; 3 ]

let test_trace_stats () =
  let inst = random_instance ~n_tasks:30 ~m:6 ~seed:5 () in
  let v = Instance.n_tasks inst and m = Instance.n_procs inst in
  let trace = Trace.create () in
  let _s = Ftsa.schedule ~seed:5 ~trace inst ~eps:2 in
  let stats = Trace.stats trace in
  check_int "steps" v stats.Metrics.steps;
  check_int "candidate evals = v*m" (v * m) stats.Metrics.candidate_evals;
  check_float "evals per task" (float_of_int m) stats.Metrics.evals_per_task;
  check_int "no gap searches without insertion" 0 stats.Metrics.gap_searches;
  let trace2 = Trace.create () in
  let _s2 = Ftsched_baseline.Heft.schedule ~trace:trace2 inst in
  let stats2 = Trace.stats trace2 in
  (* HEFT: v prepare+evaluate rounds of m gap searches, plus one
     re-search per committed replica *)
  check_int "heft gap searches" ((v * m) + v) stats2.Metrics.gap_searches;
  check_bool "heft positive mean gap depth" true
    (stats2.Metrics.mean_gap_depth >= 0.)

let test_trace_edges_and_jsonl () =
  let inst = random_instance ~n_tasks:25 ~m:5 ~seed:9 () in
  let trace = Trace.create () in
  let _s = Mc_ftsa.schedule ~seed:9 ~trace inst ~eps:1 in
  check_bool "mc-ftsa records selected edges" true
    (List.exists (fun (st : Trace.step) -> st.Trace.edges <> []) (Trace.steps trace));
  let path = Filename.temp_file "ftsched_trace" ".jsonl" in
  Trace.save_jsonl trace ~algorithm:"mc-ftsa" ~path;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  (* one object per step plus the trailing summary object, which carries
     the label it was saved under *)
  check_int "jsonl line count" (Instance.n_tasks inst + 1) (List.length !lines);
  let prefix = {|{"summary":{"algorithm":"mc-ftsa",|} in
  check_bool "summary label" true
    (String.starts_with ~prefix (List.hd !lines))

(* The processor selection: [Driver.best_by_key]'s one insertion pass
   against the copy-and-sort it replaced, kept here as written before
   (evaluation records sorted by (finish, processor) with polymorphic
   [compare], then cut to k).  Finish times come from a five-value pool
   with zeros of both signs, an infinity and a NaN, so ties are the
   rule; k runs over 1, eps + 1 and m. *)
type eval = { e_proc : int; e_finish_opt : float }

let best_by_finish_copy_and_sort evals ~k =
  let cand = Array.copy evals in
  Array.sort
    (fun a b ->
      match compare a.e_finish_opt b.e_finish_opt with
      | 0 -> compare a.e_proc b.e_proc
      | c -> c)
    cand;
  Array.sub cand 0 k

let prop_best_by_key_matches_sort =
  let pool = [| 0.; -0.; 1.5; infinity; nan |] in
  QCheck.Test.make ~name:"best_by_key equals copy-and-sort on tied finishes"
    ~count:1000
    QCheck.(pair (int_range 1 12) (int_range 0 1_000_000))
    (fun (m, seed) ->
      let rng = Ftsched_util.Rng.create ~seed in
      let finish = Array.init m (fun _ -> pool.(Ftsched_util.Rng.int rng 5)) in
      let eps = Ftsched_util.Rng.int rng m in
      let evals = Array.mapi (fun p f -> { e_proc = p; e_finish_opt = f }) finish in
      List.for_all
        (fun k ->
          let out = Array.make m (-1) in
          Driver.best_by_key finish ~n:m ~k out;
          Array.sub out 0 k
          = Array.map (fun ev -> ev.e_proc) (best_by_finish_copy_and_sort evals ~k))
        [ 1; eps + 1; m ])

(* The decision trace of the golden instance (the regression suite's
   pinned paper instance, seed 2008, eps 2): MD5 of the step lines of
   the JSONL, which hold every evaluation in evaluation order, the
   chosen replicas and the selected edges, captured before the kernel
   step evaluated into workspace buffers.  The summary line carries
   wall-clock phase times, so only its evaluation count is checked. *)
let trace_step_lines run =
  let trace = Trace.create () in
  ignore (run trace);
  let path = Filename.temp_file "ftsched_trace" ".jsonl" in
  Trace.save_jsonl trace ~algorithm:"" ~path;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  (Digest.to_hex (Digest.string (String.concat "\n" (List.rev (List.tl !lines)))),
   (Trace.stats trace).Metrics.candidate_evals)

let test_golden_trace_digests () =
  let inst =
    Workload.instance Workload.paper ~master_seed:2008 ~granularity:1.0 ~index:0
  in
  let v = Instance.n_tasks inst and m = Instance.n_procs inst in
  List.iter
    (fun (name, digest, run) ->
      let got, evals = trace_step_lines run in
      Alcotest.(check string) (name ^ " trace steps") digest got;
      check_int (name ^ " candidate evals") (v * m) evals)
    [
      ( "ftsa", "01421b1d7b56e94569c1b631da67d94a",
        fun trace -> Ftsa.schedule ~seed:2008 ~trace inst ~eps:2 );
      ( "mc-ftsa", "c19b31ae64e429826033b86c876166b1",
        fun trace -> Mc_ftsa.schedule ~seed:2008 ~trace inst ~eps:2 );
    ]

(* ------------------------------------------------------------------ *)
(* Pruned against full evaluation                                      *)

module Ftsa_policy = Ftsched_core.Ftsa_policy
module Serialize = Ftsched_schedule.Serialize

(* A plan's identity: MD5 of its [ftsched v1] text, which writes every
   replica time as a hex float and the communication plan in full. *)
let plan_digest s = Digest.to_hex (Digest.string (Serialize.schedule_to_string s))

(* A tie-heavy instance: a layered DAG with volumes 0 or 1 (all 0 when
   [zero_volumes]), one integer cost per task on every processor and a
   uniform unit delay, so equation (1) ties across processors, and the
   lower bound meets the running threshold exactly, all the time. *)
let tie_instance ~seed ~n_tasks ~m ~zero_volumes =
  let rng = Rng.create ~seed in
  let g = Ftsched_dag.Generators.layered rng ~n_tasks () in
  let b = Dag.Builder.create () in
  for _ = 1 to Dag.n_tasks g do
    ignore (Dag.Builder.add_task b)
  done;
  Dag.iter_edges g (fun _ ~src ~dst ~volume:_ ->
      let volume = if zero_volumes then 0. else float_of_int (Rng.int rng 2) in
      Dag.Builder.add_edge b ~src ~dst ~volume);
  let dag = Dag.Builder.build b in
  let exec =
    Array.init (Dag.n_tasks dag) (fun _ ->
        Array.make m (float_of_int (1 + Rng.int rng 3)))
  in
  Instance.create ~dag ~platform:(Platform.homogeneous ~m ~unit_delay:1.) ~exec

(* A random instance on asymmetric delays ([d(q,p) <> d(p,q)]); with
   [zero_delays] the off-diagonal delays with [(q + 2p) mod 3 = 0] are 0,
   so some processors have no least remote delay above 0 and the remote
   arrival bound [c_k] of {!Driver.eval_pruned} falls to the finish. *)
let asymmetric_instance ~seed ~n_tasks ~m ~zero_delays =
  let rng = Rng.create ~seed in
  let dag = Ftsched_dag.Generators.layered rng ~n_tasks () in
  let pl = Platform.random rng ~m ~delay_lo:0.5 ~delay_hi:1.0 ~symmetric:false () in
  let platform =
    if not zero_delays then pl
    else
      Platform.create
        ~delay:
          (Array.init m (fun q ->
               Array.init m (fun p ->
                   if (q + (2 * p)) mod 3 = 0 then 0. else Platform.delay pl q p)))
  in
  Instance.random_exec rng ~dag ~platform ()

(* [policy] whose [choose] first adds to [skipped] the processors
   [evaluate] left at [infinity] in [fin_opt]. *)
let counting_skipped policy ~m skipped =
  {
    policy with
    Driver.choose =
      (fun st t ->
        for p = 0 to m - 1 do
          if st.Driver.fin_opt.(p) = infinity then incr skipped
        done;
        policy.Driver.choose st t);
  }

(* A traced run evaluates every processor; an untraced FTSA or MC-FTSA
   run only those whose lower bound can still make the ε+1 best.  Every
   policy built on [Ftsa_policy] must return the same plan both ways, on
   random and on tie-heavy instances, on asymmetric delays, on delays of
   0 between distinct processors, at m = ε+1 (every predecessor has a
   replica on every processor, so every bound falls back to [lb]) and at
   m = ε+2 (hosts of the latest remote predecessor often host the whole
   list), on residual timelines and from a warm workspace.  [pruned]
   counts the processors an untraced FTSA run skipped ([infinity] left
   in [fin_opt]), overall and on the asymmetric and zero-delay
   instances, so the race is not vacuous. *)
let test_pruned_equals_full () =
  let ws = Driver.workspace () and ws_mc = Driver.workspace () in
  let pruned = ref 0 and pruned_asymmetric = ref 0 in
  let instances =
    List.concat_map
      (fun seed ->
        let m = 3 + (seed mod 6) in
        let n_tasks = 10 + (7 * seed mod 40) in
        let eps = seed mod m and small = 1 + (seed mod 4) in
        [
          ("random", seed, eps, random_instance ~seed ~n_tasks ~m ());
          ("ties", seed, eps, tie_instance ~seed ~n_tasks ~m ~zero_volumes:false);
          ("zero volumes", seed, eps, tie_instance ~seed ~n_tasks ~m ~zero_volumes:true);
          ( "asymmetric", seed, eps,
            asymmetric_instance ~seed ~n_tasks ~m ~zero_delays:false );
          ( "zero delays", seed, eps,
            asymmetric_instance ~seed ~n_tasks ~m ~zero_delays:true );
          ( "m = eps+1", seed, small - 1,
            asymmetric_instance ~seed ~n_tasks ~m:small ~zero_delays:false );
          ( "m = eps+2", seed, small - 1,
            asymmetric_instance ~seed ~n_tasks ~m:(small + 1) ~zero_delays:false );
        ])
      (List.init 12 Fun.id)
  in
  List.iter
    (fun (kind, seed, eps, inst) ->
      let m = Instance.n_procs inst in
      let asymmetric = kind = "asymmetric" || kind = "zero delays" in
      let what name = Printf.sprintf "%s seed %d eps %d: %s" kind seed eps name in
      let race name run =
        let full = run (Some (Trace.create ())) and fast = run None in
        Alcotest.(check string) (what name) (plan_digest full) (plan_digest fast)
      in
      let rng = Rng.create ~seed in
      let release = Array.init m (fun _ -> float_of_int (Rng.int rng 4)) in
      let mc strategy = Ftsa_policy.policy ~instance:inst ~eps ~mode:(Ftsa_policy.Min_comm strategy) in
      let ftsa = Ftsa_policy.policy ~instance:inst ~eps ~mode:Ftsa_policy.All_to_all_comm in
      let skipped = ref 0 in
      let counting = counting_skipped ftsa ~m skipped in
      race "ftsa" (fun trace -> Ftsa.schedule ~seed ?trace inst ~eps);
      race "ftsa, pruned count" (fun trace ->
          Ftsa_policy.run ~seed ?trace ~instance:inst counting);
      pruned := !pruned + !skipped;
      if asymmetric then pruned_asymmetric := !pruned_asymmetric + !skipped;
      race "ftsa with release" (fun trace -> Ftsa.schedule ~seed ~release ?trace inst ~eps);
      race "ftsa, warm workspace" (fun trace ->
          Ftsa.schedule ~seed ~release ~workspace:ws ?trace inst ~eps);
      List.iter
        (fun (name, strategy) ->
          race name (fun trace -> Ftsa_policy.run ~seed ?trace ~instance:inst (mc strategy)))
        [
          ("mc-ftsa greedy", Ftsa_policy.Greedy_edges);
          ("mc-ftsa bottleneck", Ftsa_policy.Bottleneck_edges);
          ("mc-ftsa redundant 2", Ftsa_policy.Redundant_edges 2);
        ];
      race "mc-ftsa with release, warm workspace" (fun trace ->
          Ftsa_policy.run ~seed ~release ~workspace:ws_mc ?trace ~instance:inst
            (mc Ftsa_policy.Greedy_edges));
      let rates = Array.init m (fun p -> 0.001 *. float_of_int (1 + (p mod 3))) in
      race "r-ftsa" (fun trace -> Ftsched_core.R_ftsa.schedule ~seed ?trace ~rates inst ~eps);
      if m >= 3 then
        race "domain-aware ftsa" (fun trace ->
            Ftsched_core.Ftsa_domains.schedule ~seed ?trace
              ~domains:(Array.init m (fun p -> p mod 3))
              inst ~eps:(min eps 2));
      race "ca-ftsa" (fun trace -> Ftsched_core.Ca_ftsa.schedule ~seed ?trace inst ~eps);
      (* the deadline test of §4.3, both ways, at budgets that pass and
         budgets that fail part way *)
      let mstar = Schedule.latency_lower_bound (Ftsa.schedule ~seed inst ~eps) in
      List.iter
        (fun factor ->
          let latency = factor *. mstar in
          let deadlines = Ftsched_model.Deadline.compute inst ~eps ~latency in
          let run trace =
            match Driver.run ~seed ~instance:inst ~policy:ftsa ~deadlines ?trace () with
            | Ok s -> "ok " ^ plan_digest s
            | Error { Driver.task; deadline; finish } ->
                Printf.sprintf "missed %d %h %h" task deadline finish
          in
          let fast = run None in
          Alcotest.(check string) (what (Printf.sprintf "deadlines x%g" factor))
            (run (Some (Trace.create ()))) fast;
          Alcotest.(check string) (what "Bicriteria.with_deadlines") fast
            (match Ftsched_core.Bicriteria.with_deadlines ~seed inst ~eps ~latency with
            | Ok s -> "ok " ^ plan_digest s
            | Error { Ftsched_core.Bicriteria.task; deadline; finish } ->
                Printf.sprintf "missed %d %h %h" task deadline finish))
        [ 0.9; 1.0; 1.5; 3.0 ])
    instances;
  check_bool "untraced FTSA skipped processors" true (!pruned > 0);
  check_bool "untraced FTSA skipped processors on asymmetric delays" true
    (!pruned_asymmetric > 0)

(* One workspace through three MC-FTSA runs: untraced on a 60-task
   instance, traced on a 20-task one (its task ids are the first run's
   too), untraced on the 60-task one again.  A traced run evaluates
   without gathering the predecessor columns, so its commit gathers them
   itself whenever they are stamped with another task; each plan must
   equal the plan of the same run from a cold workspace. *)
let test_gathered_columns_stamp () =
  let ws = Driver.workspace () in
  List.iter
    (fun seed ->
      let big = random_instance ~seed ~n_tasks:60 ~m:6 ()
      and small = random_instance ~seed:(seed + 100) ~n_tasks:20 ~m:6 () in
      List.iter
        (fun (name, strategy) ->
          List.iter
            (fun (what, inst, traced) ->
              let run ?workspace () =
                let trace = if traced then Some (Trace.create ()) else None in
                Ftsa_policy.run ~seed ?trace ?workspace ~instance:inst
                  (Ftsa_policy.policy ~instance:inst ~eps:2
                     ~mode:(Ftsa_policy.Min_comm strategy))
              in
              Alcotest.(check string)
                (Printf.sprintf "seed %d %s: %s" seed name what)
                (plan_digest (run ())) (plan_digest (run ~workspace:ws ())))
            [
              ("untraced, 60 tasks", big, false);
              ("traced, 20 tasks", small, true);
              ("untraced, 60 tasks again", big, false);
            ])
        [
          ("greedy", Ftsa_policy.Greedy_edges);
          ("redundant 2", Ftsa_policy.Redundant_edges 2);
        ])
    [ 1; 2; 3 ]

(* The guards' instance: a 1,000-task layered graph at m = 20. *)
let guard_instance () =
  let rng = Rng.create ~seed:2008 in
  let dag = Ftsched_dag.Generators.layered rng ~n_tasks:1000 () in
  let platform = Platform.random rng ~m:20 ~delay_lo:0.5 ~delay_hi:1.0 () in
  Instance.random_exec rng ~dag ~platform ()

(* Minor words per task of a whole untraced FTSA and MC-FTSA run on a
   fixed 1,000-task layered graph at m = 20, eps = 2: 219.9 and 225.6
   when pinned, 213.8 and 219.4 since [Rng] draws stopped boxing, and
   MC-FTSA 218.6 since its commit reads the gathered columns (MC-FTSA
   took 406.4 while it kept a pair list per edge, so re-adding one fails
   the guard).  The count is deterministic:
   equal over three runs in one domain and in each of two worker
   domains.  The bounds leave 10 words per task of headroom, half of one
   per-task [Array.make m], so a per-task allocation in the evaluation
   fails the guard.  A budget change goes through CHANGES.md with its
   reason. *)
let test_kernel_allocation_guard () =
  let inst = guard_instance () in
  let per_task run () =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (run ()));
    (Gc.minor_words () -. w0) /. 1000.
  in
  List.iter
    (fun (name, bound, run) ->
      let words = per_task run () in
      let again = List.init 2 (fun _ -> per_task run ()) in
      let parallel = Ftsched_par.Par.parallel_map ~jobs:2 (fun () -> per_task run ()) [ (); () ] in
      List.iter
        (fun w -> Alcotest.(check (float 0.)) (name ^ " words per task repeat") words w)
        (again @ parallel);
      if words > bound then
        Alcotest.failf "%s: %.1f minor words per task, budget %.0f" name words bound)
    [
      ("ftsa", 230., fun () -> Ftsa.schedule ~seed:1 inst ~eps:2);
      ("mc-ftsa", 229., fun () -> Mc_ftsa.schedule ~seed:1 inst ~eps:2);
    ]

(* Processors an untraced FTSA and MC-FTSA run evaluate eq. (1) exactly
   on, per task ([m] minus those left at [infinity] in [fin_opt] when
   [choose] runs), on the allocation guard's instance: 3.766 and 3.755
   when pinned, against 5.547 and 5.235 when the bound left out the
   remote-arrival term [c_k] of {!Driver.eval_pruned}.  The budget of
   4.0 leaves 0.23 and 0.24 per task (6%) of headroom, so a bound that
   drops [c_k] fails it.  The count is deterministic: equal over three
   runs in one domain and in each of two worker domains.  A budget
   change goes through CHANGES.md with its reason. *)
let test_evaluation_budget () =
  let inst = guard_instance () in
  let m = Instance.n_procs inst and v = Instance.n_tasks inst in
  List.iter
    (fun (name, bound, mode) ->
      let per_task () =
        let skipped = ref 0 in
        let policy =
          counting_skipped (Ftsa_policy.policy ~instance:inst ~eps:2 ~mode) ~m skipped
        in
        ignore (Ftsa_policy.run ~seed:1 ~instance:inst policy);
        float_of_int ((m * v) - !skipped) /. float_of_int v
      in
      let evaluated = per_task () in
      let again = List.init 2 (fun _ -> per_task ()) in
      let parallel = Ftsched_par.Par.parallel_map ~jobs:2 per_task [ (); () ] in
      List.iter
        (fun e ->
          Alcotest.(check (float 0.)) (name ^ " evaluated per task repeat") evaluated e)
        (again @ parallel);
      if evaluated > bound then
        Alcotest.failf "%s: %.3f processors evaluated per task, budget %.1f" name
          evaluated bound)
    [
      ("ftsa", 4.0, Ftsa_policy.All_to_all_comm);
      ("mc-ftsa", 4.0, Ftsa_policy.Min_comm Ftsa_policy.Greedy_edges);
    ]

let () =
  Alcotest.run "kernel"
    [
      ( "proc-state",
        [
          quick prop_gap_no_overlap;
          quick prop_gap_after_ready;
          quick prop_slots_sorted_disjoint;
          Alcotest.test_case "ready times" `Quick test_ready_times;
        ] );
      ( "driver",
        [
          Alcotest.test_case "differential: all schedulers validate" `Quick
            test_differential;
          Alcotest.test_case "trace step statistics" `Quick test_trace_stats;
          Alcotest.test_case "trace edges and jsonl" `Quick
            test_trace_edges_and_jsonl;
          quick prop_best_by_key_matches_sort;
          Alcotest.test_case "golden trace digests" `Quick
            test_golden_trace_digests;
          Alcotest.test_case "pruned evaluation = full evaluation" `Quick
            test_pruned_equals_full;
          Alcotest.test_case "gathered columns stamp" `Quick
            test_gathered_columns_stamp;
          Alcotest.test_case "kernel allocation guard" `Quick
            test_kernel_allocation_guard;
          Alcotest.test_case "evaluation budget" `Quick test_evaluation_budget;
        ] );
    ]

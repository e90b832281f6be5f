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

let prop_iter_slots_matches_slots =
  QCheck.Test.make
    ~name:"iter_slots visits exactly the slots array, in order" ~count:300
    workload_arb (fun ops ->
      let ps = Proc_state.create ~m:2 ~insertion:true in
      List.iteri
        (fun i op ->
          let p = i mod 2 in
          let ready, duration = decode op in
          let start = Proc_state.earliest_gap ps p ~ready ~duration in
          Proc_state.commit_slot ps p ~start ~finish:(start +. duration)
            ~pess_finish:(start +. duration))
        ops;
      let agree p =
        let seen = ref [] in
        Proc_state.iter_slots ps p (fun ~start ~finish ->
            seen := (start, finish) :: !seen);
        List.rev !seen = Array.to_list (Proc_state.slots ps p)
      in
      agree 0 && agree 1)

let test_iter_slots_empty () =
  (* no committed slots, and non-insertion states (which track only the
     ready horizon) must both iterate zero times *)
  let count ps p =
    let n = ref 0 in
    Proc_state.iter_slots ps p (fun ~start:_ ~finish:_ -> incr n);
    !n
  in
  check_int "fresh insertion state" 0
    (count (Proc_state.create ~m:1 ~insertion:true) 0);
  let ps = Proc_state.create ~m:1 ~insertion:false in
  Proc_state.commit_slot ps 0 ~start:0. ~finish:2. ~pess_finish:2.;
  check_int "non-insertion state records no slots" 0 (count ps 0)

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
  Trace.save_jsonl trace ~path;
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  (* one object per step plus the trailing summary object *)
  check_int "jsonl line count" (Instance.n_tasks inst + 1) !lines

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
  Trace.save_jsonl trace ~path;
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

let () =
  Alcotest.run "kernel"
    [
      ( "proc-state",
        [
          quick prop_gap_no_overlap;
          quick prop_gap_after_ready;
          quick prop_slots_sorted_disjoint;
          quick prop_iter_slots_matches_slots;
          Alcotest.test_case "iter_slots empty" `Quick test_iter_slots_empty;
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
        ] );
    ]

(* The list-based [Validate.data_feasible]: per replica and input edge
   it asks [Comm_plan.senders_to] for the sender list and folds the
   earliest and latest arrivals over it with closures.  Kept verbatim as
   a differential baseline: the flat pass in {!Ftsched_schedule.Validate}
   must return the same errors, in the same order — the test suite and
   the scale oracle compare the two.  Keep this file frozen; behavioural
   changes belong in {!Ftsched_schedule.Validate}. *)

module Dag = Ftsched_dag.Dag
module Instance = Ftsched_model.Instance
module Schedule = Ftsched_schedule.Schedule
module Comm_plan = Ftsched_schedule.Comm_plan
module F = Ftsched_util.Float_utils

let errf check fmt =
  Format.kasprintf (fun detail -> { Ftsched_schedule.Validate.check; detail }) fmt

let tolerance = 1e-6

let data_feasible s =
  let inst = Schedule.instance s in
  let g = Instance.dag inst in
  let eps = Schedule.eps s in
  let plan = Schedule.comm s in
  let errs = ref [] in
  for task = 0 to Dag.n_tasks g - 1 do
    Array.iter
      (fun (r : Schedule.replica) ->
        if r.start < -.tolerance || r.pess_start < -.tolerance then
          errs :=
            errf "negative-start" "task %d replica %d starts before time 0"
              task r.index
            :: !errs;
        let cost = Instance.exec inst task r.proc in
        if not (F.approx_equal ~eps:tolerance (r.finish -. r.start) cost) then
          errs :=
            errf "duration" "task %d replica %d on P%d: duration %g ≠ E=%g"
              task r.index r.proc (r.finish -. r.start) cost
            :: !errs;
        Dag.iter_preds g task (fun e src volume ->
            let senders =
              Comm_plan.senders_to plan ~eps e ~dst_replica:r.index
            in
            if senders = [] then
              errs :=
                errf "senders" "task %d replica %d: no sender for edge %d"
                  task r.index e
                :: !errs
            else begin
              let arrival finish sproc =
                finish +. Instance.comm_time inst ~volume ~src:sproc ~dst:r.proc
              in
              let earliest =
                List.fold_left
                  (fun acc k ->
                    let sr = Schedule.replica s src k in
                    Float.min acc (arrival sr.finish sr.proc))
                  infinity senders
              in
              let latest =
                List.fold_left
                  (fun acc k ->
                    let sr = Schedule.replica s src k in
                    Float.max acc (arrival sr.pess_finish sr.proc))
                  0. senders
              in
              if r.start +. tolerance < earliest then
                errs :=
                  errf "arrival-opt"
                    "task %d replica %d starts %g before earliest input %g"
                    task r.index r.start earliest
                  :: !errs;
              if r.pess_start +. tolerance < latest then
                errs :=
                  errf "arrival-pess"
                    "task %d replica %d pess-starts %g before latest input %g"
                    task r.index r.pess_start latest
                  :: !errs
            end))
      (Schedule.replicas s task)
  done;
  !errs

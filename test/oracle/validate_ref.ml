(* The list-based [Validate.data_feasible]: per replica and input edge
   it asks [Plan_view.senders_to] for the sender list and folds the
   earliest and latest arrivals over it with closures.  Kept verbatim as
   a differential baseline: the flat pass in {!Ftsched_schedule.Validate}
   must return the same errors, in the same order — the test suite and
   the scale oracle compare the two.  Keep this file frozen; behavioural
   changes belong in {!Ftsched_schedule.Validate}.  The frozen
   [robust_selection] below is kept the same way. *)

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
              Plan_view.senders_to plan ~eps e ~dst_replica:r.index
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

(* The list-based [Comm_plan.is_one_to_one] the frozen
   [robust_selection] was written against. *)
let is_one_to_one pairs ~eps =
  let k = eps + 1 in
  List.length pairs = k
  && begin
       let src_seen = Array.make k false and dst_seen = Array.make k false in
       let ok = ref true in
       List.iter
         (fun { Comm_plan.src_replica = s; dst_replica = d } ->
           if s < 0 || s >= k || d < 0 || d >= k then ok := false
           else begin
             if src_seen.(s) || dst_seen.(d) then ok := false;
             src_seen.(s) <- true;
             dst_seen.(d) <- true
           end)
         pairs;
       !ok
     end

(* The list-based [Validate.robust_selection]: per edge a [Hashtbl] for
   redundant rows, [Schedule.replica_on] and [List.filter] per source
   replica.  Frozen as the oracle of the flat pass. *)
let robust_selection s =
  let plan = Schedule.comm s in
  match
    if Comm_plan.is_all_to_all plan then None
    else
      let eps = Schedule.eps s in
      let g = Instance.dag (Schedule.instance s) in
      Some (Array.init (Dag.n_edges g) (Comm_plan.to_list plan ~eps))
  with
  | None -> []
  | Some sel ->
      let inst = Schedule.instance s in
      let g = Instance.dag inst in
      let eps = Schedule.eps s in
      let errs = ref [] in
      Array.iteri
        (fun e pairs ->
          let src, dst = Dag.edge_endpoints g e in
          let k = eps + 1 in
          (* A pure MC selection has exactly ε+1 pairs and must be
             one-to-one; the redundant extension carries more pairs and
             must still cover every destination and use every source. *)
          let structurally_ok =
            if List.length pairs <= k then is_one_to_one pairs ~eps
            else begin
              let src_used = Array.make k false
              and dst_fed = Array.make k false in
              let distinct = Hashtbl.create (2 * k) in
              let dup = ref false in
              List.iter
                (fun { Comm_plan.src_replica = s; dst_replica = d } ->
                  if s < 0 || s >= k || d < 0 || d >= k then dup := true
                  else begin
                    if Hashtbl.mem distinct (s, d) then dup := true;
                    Hashtbl.replace distinct (s, d) ();
                    src_used.(s) <- true;
                    dst_fed.(d) <- true
                  end)
                pairs;
              (not !dup)
              && Array.for_all Fun.id src_used
              && Array.for_all Fun.id dst_fed
            end
          in
          if not structurally_ok then
            errs :=
              errf "one-to-one" "edge %d (%d→%d): selection not one-to-one" e
                src dst
              :: !errs;
          (* Forced internal edge.  For a pure (ε+1-pair) selection, a
             source replica whose processor hosts a destination replica
             must feed exactly that replica; a redundant selection only
             has to include that internal pair (extra fan-out from the
             same source is harmless). *)
          let pure = List.length pairs <= k in
          for src_replica = 0 to k - 1 do
            let sp = Schedule.proc_of s src src_replica in
            match Schedule.replica_on s dst ~proc:sp with
            | None -> ()
            | Some colocated ->
                let outgoing =
                  List.filter
                    (fun p -> p.Comm_plan.src_replica = src_replica)
                    pairs
                in
                let has_internal =
                  List.exists
                    (fun p -> p.Comm_plan.dst_replica = colocated.index)
                    outgoing
                in
                if outgoing <> [] && not has_internal then
                  errs :=
                    errf "forced-internal"
                      "edge %d: source replica %d on P%d does not feed its \
                       colocated replica %d"
                      e src_replica sp colocated.index
                    :: !errs;
                if
                  pure
                  && List.exists
                       (fun p -> p.Comm_plan.dst_replica <> colocated.index)
                       outgoing
                then
                  errs :=
                    errf "forced-internal"
                      "edge %d: source replica %d on P%d must send only to \
                       colocated replica %d"
                      e src_replica sp colocated.index
                    :: !errs
          done)
        sel;
      !errs

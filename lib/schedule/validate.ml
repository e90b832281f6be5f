module Dag = Ftsched_dag.Dag
module Instance = Ftsched_model.Instance
module F = Ftsched_util.Float_utils

type error = { check : string; detail : string }

let pp_error ppf e = Format.fprintf ppf "[%s] %s" e.check e.detail

let errf check fmt = Format.kasprintf (fun detail -> { check; detail }) fmt

let tolerance = 1e-6

let distinct_replica_procs s =
  let errs = ref [] in
  let v = Instance.n_tasks (Schedule.instance s) in
  for task = 0 to v - 1 do
    let procs = Schedule.assigned_procs s task in
    let sorted = Array.copy procs in
    Array.sort compare sorted;
    for i = 0 to Array.length sorted - 2 do
      if sorted.(i) = sorted.(i + 1) then
        errs :=
          errf "distinct-procs" "task %d has two replicas on P%d" task
            sorted.(i)
          :: !errs
    done
  done;
  !errs

(* The pairwise scan below only sees overlaps between *adjacent*
   replicas, so it silently assumes the timeline is start-sorted.  An
   unsorted timeline is reported as its own error instead of letting
   overlaps slip past the scan. *)
let timeline_errors ~proc timeline =
  let errs = ref [] in
  let rec scan = function
    | a :: (b :: _ as rest) ->
        if b.Schedule.start +. tolerance < a.Schedule.start then
          errs :=
            errf "unsorted-timeline"
              "P%d: task %d at %g listed after task %d at %g — timeline \
               not start-sorted, overlap detection unreliable"
              proc b.Schedule.task b.start a.task a.start
            :: !errs
        else if b.Schedule.start < a.Schedule.finish -. tolerance then
          errs :=
            errf "no-overlap"
              "P%d: task %d [%g,%g) overlaps task %d [%g,%g)" proc a.task
              a.start a.finish b.task b.start b.finish
            :: !errs;
        scan rest
    | _ -> ()
  in
  scan timeline;
  !errs

let no_processor_overlap s =
  let errs = ref [] in
  (* one pass over the replica table for all m timelines; per-timeline
     order identical to [Schedule.proc_timeline] *)
  Array.iteri
    (fun p timeline -> errs := timeline_errors ~proc:p timeline @ !errs)
    (Schedule.proc_timelines s);
  !errs

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

let robust_selection s =
  match Schedule.comm s with
  | Comm_plan.All_to_all -> []
  | Comm_plan.Selected sel ->
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
            if List.length pairs <= k then Comm_plan.is_one_to_one pairs ~eps
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

let check s =
  match
    distinct_replica_procs s @ no_processor_overlap s @ data_feasible s
    @ robust_selection s
  with
  | [] -> Ok ()
  | errs -> Error errs

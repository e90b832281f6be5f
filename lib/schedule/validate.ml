module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
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

(* [Schedule.create] sorts each processor's replicas by start, so
   comparing adjacent replicas finds every overlap. *)
let no_processor_overlap s =
  let errs = ref [] in
  for p = 0 to Instance.n_procs (Schedule.instance s) - 1 do
    let tl = Schedule.timeline s p in
    for i = 1 to Array.length tl - 1 do
      let a = tl.(i - 1) and b = tl.(i) in
      if b.start < a.finish -. tolerance then
        errs :=
          errf "no-overlap" "P%d: task %d [%g,%g) overlaps task %d [%g,%g)" p
            a.task a.start a.finish b.task b.start b.finish
          :: !errs
    done
  done;
  !errs

(* One pass over the replica table, reading the DAG's predecessor CSR and
   the plan's pair lists in place: under [All_to_all] every source
   replica sends, in index order; under [Selected] the edge's pairs that
   feed this replica, in list order — the order [Comm_plan.senders_to]
   lists them in, so the folds, and the errors, are unchanged. *)
let data_feasible s =
  let inst = Schedule.instance s in
  let g = Instance.dag inst in
  let pl = Instance.platform inst in
  let delay = Array.init (Platform.n_procs pl) (Platform.delay_row pl) in
  let k = Schedule.n_replicas s in
  let pred_off = Dag.Csr.pred_offsets g and pred_edge = Dag.Csr.pred_edges g in
  let pred_task = Dag.Csr.pred_tasks g and pred_vol = Dag.Csr.pred_volumes g in
  let all_to_all, sel =
    match Schedule.comm s with
    | Comm_plan.All_to_all -> (true, [||])
    | Comm_plan.Selected sel -> (false, sel)
  in
  let errs = ref [] in
  for task = 0 to Dag.n_tasks g - 1 do
    let exec = Instance.exec_row inst task in
    let rs = Schedule.replicas s task in
    for ri = 0 to Array.length rs - 1 do
      let r = rs.(ri) in
      if r.start < -.tolerance || r.pess_start < -.tolerance then
        errs :=
          errf "negative-start" "task %d replica %d starts before time 0" task
            r.index
          :: !errs;
      let cost = exec.(r.proc) in
      if not (F.approx_equal ~eps:tolerance (r.finish -. r.start) cost) then
        errs :=
          errf "duration" "task %d replica %d on P%d: duration %g ≠ E=%g" task
            r.index r.proc (r.finish -. r.start) cost
          :: !errs;
      for j = pred_off.(task) to pred_off.(task + 1) - 1 do
        let e = pred_edge.(j) and vol = pred_vol.(j) in
        let srcs = Schedule.replicas s pred_task.(j) in
        let earliest = ref infinity and latest = ref 0. and senders = ref 0 in
        if all_to_all then
          for i = 0 to k - 1 do
            let sr = srcs.(i) in
            let w = vol *. delay.(sr.proc).(r.proc) in
            earliest := Float.min !earliest (sr.finish +. w);
            latest := Float.max !latest (sr.pess_finish +. w);
            incr senders
          done
        else begin
          let pairs = ref sel.(e) and more = ref true in
          while !more do
            match !pairs with
            | [] -> more := false
            | p :: rest ->
                if p.Comm_plan.dst_replica = r.index then begin
                  let sr = srcs.(p.Comm_plan.src_replica) in
                  let w = vol *. delay.(sr.proc).(r.proc) in
                  earliest := Float.min !earliest (sr.finish +. w);
                  latest := Float.max !latest (sr.pess_finish +. w);
                  incr senders
                end;
                pairs := rest
          done
        end;
        if !senders = 0 then
          errs :=
            errf "senders" "task %d replica %d: no sender for edge %d" task
              r.index e
            :: !errs
        else begin
          if r.start +. tolerance < !earliest then
            errs :=
              errf "arrival-opt"
                "task %d replica %d starts %g before earliest input %g" task
                r.index r.start !earliest
              :: !errs;
          if r.pess_start +. tolerance < !latest then
            errs :=
              errf "arrival-pess"
                "task %d replica %d pess-starts %g before latest input %g"
                task r.index r.pess_start !latest
              :: !errs
        end
      done
    done
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

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
   the plan's senders of each (edge, replica): under
   all-to-all every source replica, in index order; under a selection
   the edge's pairs that feed this replica, in row order — so the folds,
   and the errors, are those of the list-based check.  A sender index
   above ε names no replica: it is reported, not read. *)
let data_feasible s =
  let inst = Schedule.instance s in
  let g = Instance.dag inst in
  let pl = Instance.platform inst in
  let delay = Array.init (Platform.n_procs pl) (Platform.delay_row pl) in
  let eps = Schedule.eps s and plan = Schedule.comm s in
  let from = Array.make (Comm_plan.widest plan ~eps) 0 in
  let pred_off = Dag.Csr.pred_offsets g and pred_edge = Dag.Csr.pred_edges g in
  let pred_task = Dag.Csr.pred_tasks g and pred_vol = Dag.Csr.pred_volumes g in
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
        for i = 0 to Comm_plan.senders plan ~eps e ~dst:r.index from - 1 do
          if from.(i) > eps then
            errs :=
              errf "replica-range"
                "edge %d: source replica %d of task %d does not exist (ε = %d)"
                e from.(i) pred_task.(j) eps
              :: !errs
          else begin
            let sr = srcs.(from.(i)) in
            let w = vol *. delay.(sr.proc).(r.proc) in
            earliest := Float.min !earliest (sr.finish +. w);
            latest := Float.max !latest (sr.pess_finish +. w);
            incr senders
          end
        done;
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

(* One pass over each selected row, with stamps holding the last edge
   that saw each (source, destination) pair, source and destination
   replica, and, per source replica, a pair to its colocated destination
   replica ([col], the first on its processor) or to another one.  A row
   is structurally sound iff it stays in range, repeats no pair, uses
   every source and feeds every destination — for a pure row (at most
   ε+1 pairs) exactly one-to-one. *)
let robust_selection s =
  let plan = Schedule.comm s in
  let g = Instance.dag (Schedule.instance s) and eps = Schedule.eps s in
  let k = eps + 1 in
  let pair_seen = Array.make (k * k) (-1) and col = Array.make k (-1) in
  let src_seen = Array.make k (-1) and dst_seen = Array.make k (-1) in
  let internal = Array.make k (-1) and other = Array.make k (-1) in
  let ps = Array.make (Comm_plan.widest plan ~eps) 0 in
  let pd = Array.make (Array.length ps) 0 in
  let errs = ref [] in
  if not (Comm_plan.is_all_to_all plan) then
    for e = 0 to Dag.n_edges g - 1 do
      let src, dst = Dag.edge_endpoints g e in
      let srcs = Schedule.replicas s src and dsts = Schedule.replicas s dst in
      for sr = 0 to k - 1 do
        col.(sr) <- -1;
        for dr = k - 1 downto 0 do
          if dsts.(dr).proc = srcs.(sr).proc then col.(sr) <- dr
        done
      done;
      let len = Comm_plan.pairs plan ~eps e ~srcs:ps ~dsts:pd in
      let ok = ref true in
      for i = 0 to len - 1 do
        let sr = ps.(i) and dr = pd.(i) in
        if sr >= k || dr >= k || pair_seen.((sr * k) + dr) = e then ok := false
        else begin
          pair_seen.((sr * k) + dr) <- e;
          src_seen.(sr) <- e;
          dst_seen.(dr) <- e
        end;
        if sr < k then (if dr = col.(sr) then internal else other).(sr) <- e
      done;
      for i = 0 to k - 1 do
        if src_seen.(i) <> e || dst_seen.(i) <> e then ok := false
      done;
      if not !ok then
        errs :=
          errf "one-to-one" "edge %d (%d→%d): selection not one-to-one" e src
            dst
          :: !errs;
      (* Forced internal edge.  For a pure selection, a source replica
         whose processor hosts a destination replica must feed exactly
         that replica; a redundant selection only has to include that
         internal pair (extra fan-out from the same source is
         harmless). *)
      for sr = 0 to k - 1 do
        if col.(sr) >= 0 && other.(sr) = e then begin
          let sp = srcs.(sr).proc in
          if internal.(sr) <> e then
            errs :=
              errf "forced-internal"
                "edge %d: source replica %d on P%d does not feed its \
                 colocated replica %d"
                e sr sp col.(sr)
              :: !errs;
          if len <= k then
            errs :=
              errf "forced-internal"
                "edge %d: source replica %d on P%d must send only to \
                 colocated replica %d"
                e sr sp col.(sr)
              :: !errs
        end
      done
    done;
  !errs

let check s =
  match
    distinct_replica_procs s @ no_processor_overlap s @ data_feasible s
    @ robust_selection s
  with
  | [] -> Ok ()
  | errs -> Error errs

(** The generic instrumented list-scheduling driver.

    Every scheduler in this repository — FTSA and its variants (MC, CA,
    R, domain-aware), the bicriteria engine, and the HEFT/PEFT/CPOP/FTBAR
    baselines — is one loop: pick the next task under some discipline,
    evaluate a finish-time estimate on candidate processors, select the
    replica set, commit it against the shared {!Proc_state} timelines,
    and free the successors.  This module owns that loop; a {!policy}
    value supplies the four varying ingredients (task order, candidate
    evaluation, replica selection, commit rule) and the driver supplies
    everything invariant: free-task bookkeeping, the binary-heap priority
    list [α] with its RNG tie-breaking, deadline checking (§4.3),
    timeline updates, trace emission and final
    {!Ftsched_schedule.Schedule.t} assembly.

    The loop runs on flat int-indexed arrays: the DAG's CSR adjacency
    ({!Ftsched_dag.Dag.Csr}) is cached in {!state}, the ready set is
    either the heap or an intrusive doubly-linked array list (O(1)
    removal), and the eq-(1)/(3) reductions iterate pre-flattened
    predecessor arrays — no per-event list allocation.  The pinned
    schedule digests in the regression suite prove the rewrite is
    bit-for-bit identical to the list-based engine it replaced.

    One kernel step — evaluate, choose, commit — works in buffers the
    {!workspace} owns: [evaluate] writes every processor's finish
    estimates into [fin_opt] / [fin_pess], [choose] writes the chosen
    processors into [chosen] ({!best_by_finish} keeps the ε+1 best in
    one partial insertion pass, no sort), and selected-communication
    commit rules build each DAG edge's candidate graph in the
    workspace's flat {!Edge_select.t}.  A step allocates only the rows
    the schedule keeps: the committed replica row and, under MC-FTSA,
    each edge's message list.

    Equation (1)/(3) evaluation is provided here ({!prepare_inputs} /
    {!eval_inputs}) with the per-predecessor earliest/latest-replica
    reduction hoisted out of the per-processor loop: each predecessor's
    replica row is folded into per-target-processor arrival bounds once
    per task, instead of once per candidate processor. *)

type committed = {
  proc : int;
  start_opt : float;
  finish_opt : float;
  start_pess : float;
  finish_pess : float;
}
(** A committed replica: optimistic (eq. 1) and pessimistic (eq. 3)
    times. *)

type state = {
  inst : Ftsched_model.Instance.t;
  rng : Ftsched_util.Rng.t;
  n_tasks : int;
  n_procs : int;
  replicas : int;  (** replicas per task of the running policy *)
  timeline : Proc_state.t;
  ready_opt : float array;
      (** the timeline's live ready times ({!Proc_state.ready_opt});
          read-only *)
  ready_pess : float array;  (** pessimistic counterpart; read-only *)
  placed : committed array option array;  (** per task, one row per replica *)
  selected : Ftsched_schedule.Comm_plan.pair list array;
      (** per DAG edge: the selected messages — written once per edge by
          selected-communication commit rules, and the run's
          [Comm_plan.Selected] plan as is *)
  in_opt : float array;
      (** scratch, filled by {!prepare_inputs}: optimistic input-arrival
          bound of the current task per target processor *)
  in_pess : float array;  (** pessimistic counterpart *)
  tmp_opt : float array;  (** per-predecessor scratch *)
  tmp_pess : float array;
  fin_opt : float array;
      (** the evaluation buffer: equation-(1) finish of the current task
          per processor, filled by [policy.evaluate] *)
  fin_pess : float array;  (** equation-(3) counterpart *)
  chosen : int array;
      (** the choice buffer: entries [0 … replicas−1] are the current
          task's processors, in replica order, filled by [policy.choose] *)
  replica_on : int array;
      (** per processor: during [policy.commit], the replica index of the
          current task placed there, [-1] elsewhere *)
  edges : Edge_select.t;
      (** the candidate set selected-communication commit rules build
          each DAG edge's selection in *)
  trace : Trace.t option;  (** the run's trace, if any *)
  pred_off : int array;
      (** CSR offsets of the DAG's predecessor adjacency
          ({!Ftsched_dag.Dag.Csr.pred_offsets}), cached for the hot
          loops; read-only *)
  pred_task : int array;  (** CSR predecessor task ids *)
  pred_vol : float array;  (** CSR predecessor edge volumes *)
  pred_edge : int array;  (** CSR predecessor edge ids *)
  succ_off : int array;  (** CSR successor offsets *)
  succ_task : int array;  (** CSR successor task ids *)
}
(** The driver's mutable run state, exposed so policies can read the
    partial schedule and fill the evaluation and choice buffers.  Every
    array lives in the run's {!workspace}: a kernel step allocates
    nothing per candidate processor or per DAG edge beyond the rows the
    schedule keeps.  Policies must not touch [placed] or the timeline
    directly — the driver commits. *)

type tie_break =
  | Rng_tie
      (** exact-priority ties draw a uniform tie-break from the run's RNG
          at push time (Algorithm 4.1) *)
  | Lifo_tie
      (** the most recently freed task wins exact-priority ties — the
          behaviour of scanning a newest-first ready list for the first
          strict maximum (PEFT, CPOP) *)

type discipline =
  | Priority of { key : state -> int -> float; tie : tie_break }
      (** Pop the maximum [(key, tie, task)] from the binary-heap list
          [α]; the key is computed when the task becomes free. *)
  | Fixed_order of (state -> int array)
      (** Schedule in a precomputed (topological) order — HEFT's static
          upward-rank order. *)
  | Urgency of (state -> free:int array -> int * float)
      (** Re-evaluate every free task each step and return the chosen
          task and its urgency, with its placements already selected:
          [chosen] holds its processors and [fin_opt] / [fin_pess] their
          finish estimates — FTBAR's schedule-pressure rule.  The
          callback reports its own evaluations ({!count_evals}).  [free]
          lists free tasks, most recently freed first; the array is a
          fresh snapshot the callback may keep. *)

type policy = {
  name : string;
  replicas : int;  (** replicas per task, [ε+1] *)
  discipline : discipline;
  prepare : state -> int -> unit;
      (** per-task precomputation before candidate evaluation (e.g.
          {!prepare_inputs}); skipped under [Urgency] *)
  evaluate : state -> int -> unit;
      (** [evaluate st t]: finish estimates of [t] on every processor,
          in processor order, into [fin_opt] / [fin_pess] *)
  choose : state -> int -> unit;
      (** select the [replicas] processors from the evaluations, into
          [chosen] *)
  commit : state -> int -> committed array;
      (** turn the chosen placements into committed replicas (the row the
          schedule keeps); selected-communication policies re-time
          replicas and fill [state.selected] here *)
  after_commit : state -> int -> committed array -> unit;
      (** policy bookkeeping after the driver records a commit *)
  insertion : bool;
      (** maintain slot timelines for insertion-based gap search *)
  selected_comm : bool;
      (** build a [Comm_plan.Selected] plan from [state.selected]
          instead of [All_to_all] *)
}

type deadline_failure = { task : int; deadline : float; finish : float }
(** Witness that the dual-fixed bicriteria test of §4.3 failed. *)

type workspace
(** A reusable allocation arena for {!run}: the per-call arrays (timeline
    state, placement rows, per-processor scratch, priority heap, free-set
    links) live here and are resized only when the instance shape grows.
    Passing the same workspace to successive calls removes the per-call
    allocation cost entirely — the warm-start path of the streaming
    admission controller, which schedules the same-shaped instance once
    per ε-relaxation step.  Results are bit-for-bit identical with and
    without a workspace.  A workspace serves one caller at a time:
    sharing it between concurrent runs corrupts both (give each domain
    its own). *)

val workspace : unit -> workspace
(** A fresh, empty workspace, usable with any instance shape. *)

val run :
  ?seed:int ->
  instance:Ftsched_model.Instance.t ->
  policy:policy ->
  ?release:float array ->
  ?deadlines:float array ->
  ?trace:Trace.t ->
  ?workspace:workspace ->
  unit ->
  (Ftsched_schedule.Schedule.t, deadline_failure) result
(** Run the loop to completion.  [?seed] (default 0) seeds the run's RNG,
    which breaks exact priority ties ([Rng_tie]) and whatever draws the
    policy makes from [state.rng].  With [?deadlines] (one per task) the
    per-step feasibility check of §4.3 aborts at the first missed
    deadline.  [?trace] records every decision (see {!Trace}).  Without
    [?workspace] the run allocates a fresh one.

    [?release] (one entry per processor, default all zero) models
    {e residual} timelines: processor [p] is busy with foreign work until
    [release.(p)] and no replica may start before that instant.  Each
    positive entry is pre-committed as an opaque busy slot
    [\[0, release.(p))], so both the ready times of the FTSA family and
    the insertion gap searches of the baselines respect it — this is how
    an online admission controller ({!Ftsched_stream}) places a new job
    on a platform already running others.  Raises [Invalid_argument] if
    [release] has the wrong size or holds a negative, NaN or infinite
    entry, if [deadlines] has the wrong size, or if [policy.replicas] is
    not in [1, m]. *)

val schedule :
  ?seed:int ->
  instance:Ftsched_model.Instance.t ->
  policy:policy ->
  ?release:float array ->
  ?trace:Trace.t ->
  ?workspace:workspace ->
  unit ->
  Ftsched_schedule.Schedule.t
(** {!run} without deadlines, which cannot fail: the entry point of every
    scheduler. *)

(** {2 Equation-(1)/(3) helpers}

    Shared by every replica-aware policy (FTSA family, FTBAR). *)

val replicas_of : state -> int -> committed array
(** Committed replicas of a placed task; raises [Invalid_argument] if the
    task is not placed yet. *)

val count_evals : state -> int -> unit
(** [count_evals st n] books [n] equation-(1) candidate evaluations to
    the run's trace (nothing without one).  The driver books [m] per
    task it evaluates; an [Urgency] policy books its own. *)

val prepare_inputs : state -> int -> unit
(** Fill [state.in_opt]/[state.in_pess] with the input-arrival bounds of
    the task on every target processor: per predecessor, the earliest
    (optimistic) and latest (pessimistic) replica arrival, maximized over
    predecessors — the hoisted inner reduction of equations (1)/(3).
    Books one reduction per predecessor to the run's trace
    ({!Trace.reductions}). *)

val eval_inputs : state -> int -> unit
(** [eval_inputs st t] is equations (1) and (3) for [t] on every
    processor, into [fin_opt] / [fin_pess], reading the bounds prepared
    by {!prepare_inputs} and the processor ready times. *)

val top_level : state -> int -> float
(** Dynamic top level [tℓ(t)] of a freshly freed task (§4.1): worst-case
    availability of each input anywhere in the system, taking for each
    predecessor its earliest-finishing replica.  Books one reduction per
    predecessor, as {!prepare_inputs} does. *)

val best_by_key : float array -> n:int -> k:int -> int array -> unit
(** [best_by_key key ~n ~k out] writes into [out.(0 … k−1)] the [k]
    indices of [key.(0 … n−1)] with the smallest keys, increasing by
    (key, index) under [Float.compare] — a sort by (key, index) cut to
    [k], in one insertion pass that allocates nothing.  Raises
    [Invalid_argument] unless [1 ≤ k ≤ n]. *)

val best_by_finish : state -> k:int -> unit
(** The [k] processors with the smallest [fin_opt], increasing (ties by
    processor id), into [chosen] — the equation-(1) processor
    selection. *)

val commit_straight : state -> int -> committed array
(** The identity commit rule: each chosen replica starts [E(t,p)] before
    its estimated finish, exactly as evaluated. *)

val no_after_commit : state -> int -> committed array -> unit

(** {2 Insertion-based helpers}

    For policies with [insertion = true] (HEFT, PEFT, CPOP): the task may
    slide into an idle gap between already-committed slots. *)

val eval_insertion : state -> int -> unit
(** [eval_insertion st t]: finish time of [t] slid into the earliest
    timeline gap of each processor at or after the {!prepare_inputs}
    arrival bound, into [fin_opt] (and [fin_pess], equal). *)

val commit_insertion : state -> int -> committed array
(** Commit rule matching {!eval_insertion}: re-derives the gap start (the
    timeline is unchanged since evaluation) so the replica starts at the
    true slot start — [finish − duration] can differ in the last bits. *)

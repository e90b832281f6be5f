(** The FTSA / MC-FTSA instantiation of the kernel driver.

    One pass of Algorithm 4.1, expressed as a {!Ftsched_kernel.Driver}
    policy: the heap-backed priority list [α] keyed by criticalness
    [tℓ(t) + bℓ(t)], equation-(1) finish evaluation on every processor,
    the [ε+1] best processors kept, replicas committed.  In
    minimum-communication mode the commit rule additionally runs the
    robust edge selection of §4.2 per incoming DAG edge and re-times the
    replicas against their single selected sender.

    This module is the implementation substrate; user-facing entry points
    are {!Ftsa}, {!Mc_ftsa} and {!Bicriteria}. *)

type edge_strategy =
  | Greedy_edges  (** the paper's greedy rule *)
  | Bottleneck_edges  (** optimal bottleneck matching *)
  | Redundant_edges of int
      (** extension: greedy selection widened to that many senders per
          destination replica (see {!Edge_select.redundant}) *)

type mode =
  | All_to_all_comm  (** plain FTSA: replicas broadcast to all successors *)
  | Min_comm of edge_strategy  (** MC-FTSA *)

type deadline_failure = {
  task : Ftsched_dag.Dag.task;
  deadline : float;
  finish : float;  (** the best achievable [max over chosen procs F(t,P)] *)
}
(** Witness that the dual-fixed bicriteria test of §4.3 failed: scheduling
    [task] could not meet its deadline. *)

val run :
  rng:Ftsched_util.Rng.t ->
  instance:Ftsched_model.Instance.t ->
  eps:int ->
  mode:mode ->
  ?release:float array ->
  ?deadlines:float array ->
  ?trace:Ftsched_kernel.Trace.t ->
  ?workspace:Ftsched_kernel.Driver.workspace ->
  unit ->
  (Ftsched_schedule.Schedule.t, deadline_failure) result
(** [run ~rng ~instance ~eps ~mode ()] schedules the whole DAG.
    [eps] must satisfy [0 ≤ eps < m].  With [?deadlines] (one per task),
    the per-step feasibility check of §4.3 is enabled and the first missed
    deadline aborts the run.  [rng] drives only priority tie-breaking.
    [?release] pre-occupies each processor until the given instant
    (residual timelines — see {!Ftsched_kernel.Driver.run}).
    [?trace] records every scheduling decision (see
    {!Ftsched_kernel.Trace}).  [?workspace] reuses a
    {!Ftsched_kernel.Driver.workspace} across calls (bit-for-bit
    identical results, no per-call allocation).  Raises
    [Invalid_argument] on malformed parameters. *)

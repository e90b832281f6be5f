(** The FTSA / MC-FTSA instantiation of the kernel driver.

    One pass of Algorithm 4.1, expressed as a {!Ftsched_kernel.Driver}
    policy: the heap-backed priority list [α] keyed by criticalness
    [tℓ(t) + bℓ(t)], equation-(1) finish evaluation on the processors
    that can still be among the [ε+1] best ({!Ftsched_kernel.Driver.eval_pruned};
    every processor in a traced run), the [ε+1] best processors kept,
    replicas committed.  In
    minimum-communication mode the commit rule is the kernel's
    {!Ftsched_kernel.Driver.commit_min_comm}: per incoming DAG edge it
    builds the §4.2 replica graph from the predecessor columns the
    evaluation gathered, runs the mode's robust edge selection
    ({!Ftsched_kernel.Edge_select}) and re-times the replicas against
    their selected senders.

    This module is the implementation substrate of the whole FTSA family;
    user-facing entry points are {!Ftsa}, {!Mc_ftsa}, {!R_ftsa},
    {!Ftsa_domains}, {!Ca_ftsa} and {!Bicriteria}. *)

type edge_strategy =
  | Greedy_edges  (** the paper's greedy rule *)
  | Bottleneck_edges  (** optimal bottleneck matching *)
  | Redundant_edges of int
      (** extension: greedy selection widened to that many senders per
          destination replica (see {!Edge_select.redundant}) *)

type mode =
  | All_to_all_comm  (** plain FTSA: replicas broadcast to all successors *)
  | Min_comm of edge_strategy  (** MC-FTSA *)

val policy :
  instance:Ftsched_model.Instance.t ->
  eps:int ->
  mode:mode ->
  Ftsched_kernel.Driver.policy
(** The FTSA ([All_to_all_comm]) or MC-FTSA ([Min_comm]) policy for
    [ε = eps].  The FTSA variants derive theirs from it by record update:
    R-FTSA and domain-aware FTSA override [choose], which reads every
    processor's finish, so they also set [prepare] / [evaluate] to the
    full {!Ftsched_kernel.Driver.prepare_inputs} /
    {!Ftsched_kernel.Driver.eval_inputs}; contention-aware FTSA overrides
    [prepare], [evaluate] and [commit] and keeps [choose], the [ε+1]
    earliest finishes ({!Ftsched_kernel.Driver.best_by_finish}). *)

val run :
  ?seed:int ->
  ?release:float array ->
  ?trace:Ftsched_kernel.Trace.t ->
  ?workspace:Ftsched_kernel.Driver.workspace ->
  instance:Ftsched_model.Instance.t ->
  Ftsched_kernel.Driver.policy ->
  Ftsched_schedule.Schedule.t
(** [run ~instance policy] schedules the whole DAG with a {!policy} (or
    one derived from it), whose [ε = replicas − 1] must satisfy
    [0 ≤ ε < m].  [?seed] (default 0) drives only priority tie-breaking;
    [?release], [?trace] and [?workspace] are those of
    {!Ftsched_kernel.Driver.run}.  Raises [Invalid_argument] on
    malformed parameters. *)

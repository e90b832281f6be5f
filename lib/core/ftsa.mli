(** FTSA — the Fault Tolerant Scheduling Algorithm (Algorithm 4.1).

    Maps every task of the DAG onto [ε+1] distinct processors using active
    replication so that the schedule tolerates any [ε] fail-silent
    processor failures (Theorem 4.1), while greedily minimizing latency:
    the critical free task (largest [tℓ + bℓ]) is repeatedly placed on the
    [ε+1] processors minimizing its equation-(1) finish time.

    Complexity: O(e·m² + v·log ω) as established by Theorem 4.2. *)

val schedule :
  ?seed:int ->
  ?release:float array ->
  ?trace:Ftsched_kernel.Trace.t ->
  ?workspace:Ftsched_kernel.Driver.workspace ->
  Ftsched_model.Instance.t ->
  eps:int ->
  Ftsched_schedule.Schedule.t
(** [schedule inst ~eps] runs FTSA.  [eps = 0] yields the fault-free
    (replication-less) variant used as the baseline in the figures.
    Randomness ([?seed], default 0) only breaks priority ties.
    [?release] (one instant per processor) places the job on residual
    timelines: processor [p] carries foreign work until [release.(p)] and
    equation (1) starts its ready queue there — the online admission path
    of {!Ftsched_stream}.  [?trace] records every scheduling decision.
    [?workspace] reuses a {!Ftsched_kernel.Driver.workspace} across calls
    (bit-for-bit identical results, no per-call allocation) — the
    warm-start path of repeated replanning.  Raises [Invalid_argument]
    unless [0 ≤ eps < m]. *)

val fault_free : ?seed:int -> Ftsched_model.Instance.t -> Ftsched_schedule.Schedule.t
(** [fault_free inst] is [schedule inst ~eps:0]. *)

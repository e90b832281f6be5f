(** R-FTSA — reliability-aware replica placement.

    The paper's §7 closes with: "we want to study a more complex failure
    model, in which we would also account for the failure probability of
    the application."  This variant does exactly that for heterogeneous
    failure {e rates}: processors are not equally likely to die, and
    placing all ε+1 replicas of a critical task on flaky machines wastes
    the redundancy.

    R-FTSA keeps FTSA's loop and guarantees (ε+1 replicas on distinct
    processors, all-to-all replica messages — Theorem 4.1 applies
    verbatim) but changes the processor choice: among the processors
    whose equation-(1) finish time is within a factor [1 + alpha] of the
    ε+1-th best, it prefers those with the smallest failure probability
    over the replica's own execution window
    ([1 - exp(-rate·E(t,p))], i.e. smallest [rate·E]).  [alpha] bounds
    the latency concession bought per unit of reliability. *)

val schedule :
  ?seed:int ->
  ?alpha:float ->
  ?trace:Ftsched_kernel.Trace.t ->
  rates:float array ->
  Ftsched_model.Instance.t ->
  eps:int ->
  Ftsched_schedule.Schedule.t
(** [schedule ~rates inst ~eps] with per-processor failure rates
    ([rates.(p) ≥ 0], one per processor) and latency slack [alpha ≥ 0]
    (default 0.15).  [alpha = 0] selects the same processor set as FTSA
    (replica numbering may differ).  Raises
    [Invalid_argument] on malformed parameters. *)

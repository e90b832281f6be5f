(** FTBAR (Fault Tolerance Based Active Replication) — the paper's direct
    competitor (Girault, Kalla, Sighireanu, Sorel; DSN'03), reimplemented
    as described in §5.

    At every step [n], FTBAR evaluates the {e schedule pressure}
    [σ(n)(ti,pj) = S(n)(ti,pj) + s(ti) − R(n−1)] of every free task on
    every processor — [S] the earliest start of [ti] on [pj] under the
    current partial schedule, [s] the static latest-start level from the
    bottom, [R] the current schedule length.  Each free task gets the
    [Npf+1] processors minimizing its pressure; the {e most urgent} task —
    the one whose best placements still carry the largest pressure — is
    scheduled on its [Npf+1] processors.

    Because every step re-evaluates every free task on every processor,
    the complexity is O(P·N³), the cubic growth that Table 1 exhibits.

    Departure from the original: the recursive Minimize-Start-Time
    duplication of Ahmad & Kwok is not applied (it inserts extra task
    copies beyond the [ε+1] replicas, which neither the schedule model of
    this paper nor its validation propositions cover).  DESIGN.md records
    the substitution; the comparison shapes of §6 hold without it. *)

val schedule :
  ?seed:int ->
  ?trace:Ftsched_kernel.Trace.t ->
  Ftsched_model.Instance.t ->
  npf:int ->
  Ftsched_schedule.Schedule.t
(** [schedule inst ~npf] tolerates [npf] failures ([npf+1] replicas per
    task, all-to-all replica communication).  [npf = 0] is the fault-free
    FTBAR of the figures.  Raises [Invalid_argument] unless
    [0 ≤ npf < m]. *)

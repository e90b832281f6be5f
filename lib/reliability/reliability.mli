(** Probabilistic reliability of fault-tolerant schedules.

    The paper guarantees survival of {e any} ε fail-stop failures
    (Theorem 4.1) and leaves "a more complex failure model, in which we
    would also account for the failure probability of the application" as
    future work (§7).  This module provides that analysis:

    - each processor fails independently with probability [p_fail]
      (Bernoulli crash-at-start), or at an exponentially distributed
      instant with rate [rate] (timed mission model);
    - the schedule's {e reliability} is the probability that every task
      still completes, under a given execution policy.

    Three estimators are provided: the closed-form binomial lower bound
    implied by Theorem 4.1, exact enumeration over failure subsets
    (exponential in [m], for small platforms), and Monte Carlo sampling
    (any size, with a standard-error estimate). *)

val binomial_bound : Ftsched_schedule.Schedule.t -> p_fail:float -> float
(** [Σ over k ≤ ε of C(m,k)·p^k·(1−p)^(m−k)] — the reliability implied by
    tolerating every subset of at most [ε] failures.  A valid lower bound
    for schedules that actually survive all such subsets (all-to-all
    plans, or any plan under [Reroute]); it ignores the luck of surviving
    larger subsets, hence "bound". *)

val exact :
  Ftsched_schedule.Schedule.t ->
  Ftsched_sim.Crash_exec.policy ->
  p_fail:float ->
  float
(** Exact reliability by enumerating all [2^m] failure subsets, each
    judged by {!Ftsched_sim.Crash_exec.survives} under the given policy:
    [Strict] uses only the communication plan's senders (the
    paper-literal semantics under which MC-FTSA's end-to-end guarantee
    fails — see DESIGN.md), [Reroute] falls back to any productive
    sender.  Raises [Invalid_argument] when [m > 16]. *)

type estimate = {
  mean : float;
  stderr : float;
  trials : int;
}

val monte_carlo :
  Ftsched_util.Rng.t ->
  Ftsched_schedule.Schedule.t ->
  Ftsched_sim.Crash_exec.policy ->
  p_fail:float ->
  trials:int ->
  estimate
(** Sampling estimator of the same quantity as {!exact}. *)

val mission :
  Ftsched_util.Rng.t ->
  Ftsched_schedule.Schedule.t ->
  ?network:Ftsched_sim.Event_sim.network_model ->
  ?rates:float array ->
  rate:float ->
  trials:int ->
  unit ->
  estimate * float option
(** Mission reliability under {e timed} failures: every processor draws
    an exponential time-to-failure with [rate] (per unit of schedule
    time) — or its own entry of [rates] when given, for heterogeneous
    platforms (see {!Ftsched_core.R_ftsa}) — and the schedule is replayed
    by the event simulator (strict semantics).  Returns the success-probability estimate and, when at
    least one trial succeeded, the mean achieved latency over successful
    trials. *)

(** Online failure recovery on top of the discrete-event simulator.

    The paper's schedules are statically fault tolerant — [ε+1] replicas
    survive any [ε] fail-stop failures — but beyond [ε] failures every
    guarantee evaporates, and MC-FTSA's selected plans can starve well
    within [ε] (the strict-policy cascade, Finding 1 of EXPERIMENTS.md).
    This module adds the dynamic behaviour the paper's §7 leaves as
    future work: an executor that reacts to failures {e online}.

    Execution proceeds on {!Ftsched_sim.Event_sim.Engine}.  Failures are
    observed through a {!Detector} with constant detection latency [δ]:
    between a death and its detection the system wastes messages to the
    dead processor and cannot react.  At each detection instant the
    recovery scheduler sweeps the graph in topological order and, per
    task:

    - kills not-yet-started replicas hosted on known-dead processors and
      replicas that are provably starved given current knowledge (no
      surviving potential sender for some input) — unblocking the
      processor queues behind them;
    - if the task retains no {e viable} replica (one that completed on a
      live processor, is running, or can still be fed), re-maps a fresh
      replica onto a live processor chosen by the FTSA eq. (1) rule
      restricted to the remaining work — minimizing the estimated finish
      over believed-alive processors — wired to {e every} viable replica
      of each predecessor (completed predecessors re-send their data;
      pending ones deliver on completion).  A task completed on a dead
      processor is re-executed when its data may still be needed
      downstream.

    Re-mapping is bounded: at most [rounds] re-mappings per task (default
    [n_procs], enough to survive any failure pattern that leaves one
    processor alive).  When the budget is exhausted — or no live
    processor remains — the run degrades gracefully: instead of
    [latency = None] the outcome reports which tasks and sink tasks
    completed and the latency of the completed subset
    ({!Ftsched_schedule.Metrics.degraded}).

    Decisions use only detector knowledge (a re-send scheduled from a
    dead-but-undetected processor is silently lost and paid for at the
    next sweep); physics — message cut-offs, port contention for planned
    messages — stays with the engine.  Re-sends bypass port contention, a
    deliberate simplification. *)

module Event_sim = Ftsched_sim.Event_sim

type outcome = {
  result : Event_sim.result;
      (** engine-level outcomes; [result.latency = None] iff degraded *)
  degraded : Ftsched_schedule.Metrics.degraded;
      (** completed-subset metrics; [degraded.complete] iff every task
          finished somewhere *)
  injections : int;  (** replicas re-mapped over the whole run *)
  kills : int;  (** replicas killed by the recovery sweeps *)
  detected_failures : int;
}

type workspace
(** Warm-start cache for repeated runs over the same schedule: the
    engine's fail-time-independent template, re-derived only when the
    schedule (or release) changes.  The streaming runtime's shadow-plan loop calls {!run} once
    per candidate crash of the same plan and pays the derivation once.
    Results are bit-for-bit identical with and without a workspace.  One
    workspace serves one caller at a time. *)

val workspace : unit -> workspace
(** A fresh, empty cache. *)

val run :
  ?network:Event_sim.network_model ->
  ?faults:Ftsched_sim.Scenario.comm_faults ->
  ?release:float array ->
  ?delta:float ->
  ?rounds:int ->
  ?workspace:workspace ->
  Ftsched_schedule.Schedule.t ->
  fail_times:float array ->
  outcome
(** [delta] defaults to [0.] (instant detection); [rounds] defaults to
    the platform size.  With the default budget and at least one
    processor alive at the end, the run always completes every task
    (defeat is impossible — see the property tests).  A detection
    latency larger than every replica's slack — even one exceeding the
    whole static horizon — still terminates in a {e typed} outcome:
    sweeps fire at [fail + δ] however late that is, and the worst case
    is a degraded outcome ([degraded.complete = false]), never a hang or
    an exception.  [faults] (default reliable) subjects {e planned}
    messages and [On_completion] re-wirings to the communication-fault
    model; recovery's own [Resend]s are priced by the controller and
    stay reliable, so recovery remains an effective answer to message
    loss.  [release] forwards residual processor occupancy to the engine
    (see {!Event_sim.Engine.create}); the recovery sweeps price
    injections against it through [Engine.free_at]. *)

val run_timed :
  ?network:Event_sim.network_model ->
  ?faults:Ftsched_sim.Scenario.comm_faults ->
  ?release:float array ->
  ?delta:float ->
  ?rounds:int ->
  ?workspace:workspace ->
  Ftsched_schedule.Schedule.t ->
  Ftsched_sim.Scenario.timed list ->
  outcome
(** Convenience wrapper building [fail_times] from a timed scenario. *)

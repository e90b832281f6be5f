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
    visited task:

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
      downstream.  Each viable source is priced once (the instant its
      data can leave); the processor loop then only adds transfer
      times.

    The first sweep and every post-drain repair sweep visit every task.
    A later sweep visits only the cone a detection can change: the tasks
    with a viable replica on a newly detected processor or a viable
    replica the engine lost since the task was last visited (crash
    physics, starvation cascades, exhausted retries, kills), then, in
    topological rank, the successors of every visited task whose viable
    set changed — grew or shrank.  Any other task would keep its viable
    set, kill nothing and inject nothing, so the outcome is that of a
    full pass, bit for bit.  Viability is one byte per engine row, read
    through the engine's non-allocating row accessors.  Who feeds a
    waiting row is the engine's wiring, read in place through
    {!Ftsched_sim.Event_sim.Engine.exists_source}: the plan's senders of
    a static row, the sources an injected row was given.  A re-mapped
    replica's sources are handed to the engine as flat columns — each a
    source row and a priced arrival or
    {!Ftsched_sim.Event_sim.Engine.on_completion} — and the controller
    keeps no wiring of its own.

    Re-mapping is bounded: at most [rounds] re-mappings per task (default
    [n_procs], enough to survive any failure pattern that leaves one
    processor alive).  When the budget is exhausted — or no live
    processor remains — the run degrades gracefully: instead of
    [latency = None] the outcome reports which tasks and sink tasks
    completed and the latency of the completed subset
    ({!Ftsched_schedule.Metrics.degraded}).

    Once every detection sweep has run the engine drains.  On lossy
    links a message lost after the last sweep can still starve a task,
    so while tasks are missing, a processor is believed alive and the
    previous round killed or injected something, a {e forced} sweep
    re-executes the missing work.  On reliable links that sweep could
    change nothing, and it is not run:
    - every crash precedes its detection, so after the last sweep no
      processor fails, and every row that sweep left viable completes.
      Its processor lives; a viable plan sender of a static row, and a
      viable source of an injected row, deliver over reliable links; and
      no wait cycle exists, because a static row waits only on static
      rows (its plan senders and its planned queue, both consistent with
      the plan's commit order), an injected row only on rows that
      existed when it was injected (its sources and the rows ahead of it
      at its processor's tail);
    - so the drained engine holds no waiting row to kill, and a task
      still missing had no viable row at the last sweep and could not be
      re-mapped then — its budget was spent, or a predecessor had no
      viable row, or no processor was believed alive — and draining
      changes none of these.

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

val run :
  ?network:Event_sim.network_model ->
  ?faults:Ftsched_sim.Scenario.comm_faults ->
  ?release:float array ->
  ?delta:float ->
  ?rounds:int ->
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
    messages and the re-wirings that deliver on a source's completion
    ({!Event_sim.Engine.on_completion}) to the communication-fault
    model; recovery's own re-sends are priced by the controller and
    stay reliable, so recovery remains an effective answer to message
    loss.  [release] forwards residual processor occupancy to the engine
    (see {!Event_sim.Engine.create}); the recovery sweeps price
    injections against it through [Engine.free_at].  Raises
    [Invalid_argument] on a malformed [fail_times] (wrong length or a
    NaN entry), a negative [rounds] or [delta], and whatever
    {!Event_sim.Engine.create} rejects. *)

val run_timed :
  ?network:Event_sim.network_model ->
  ?faults:Ftsched_sim.Scenario.comm_faults ->
  ?release:float array ->
  ?delta:float ->
  ?rounds:int ->
  Ftsched_schedule.Schedule.t ->
  Ftsched_sim.Scenario.timed list ->
  outcome
(** Convenience wrapper building [fail_times] from a timed scenario.
    Raises [Invalid_argument] on a processor outside the platform or a
    NaN instant. *)

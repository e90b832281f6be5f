(** Deterministic re-execution of a schedule under fail-stop failures.

    This is what the paper's "Crash" curves measure: "the real execution
    time for a given schedule rather than just bounds".  The failed
    processors are dead from the start; live replicas keep their planned
    per-processor order but re-time dynamically — each starts as soon as
    its processor is free and the {e first} copy of every input has
    arrived from a surviving sender allowed by the communication plan
    (active replication: later copies are ignored, Prop. 4.2).

    {2 Execution policies}

    Under the {e strict} policy a replica starves (and is skipped,
    consuming no processor time) when for some input edge none of its
    plan senders ever runs.  For all-to-all plans (FTSA, FTBAR) Theorem
    4.1 then guarantees completion under at most [ε] failures.  For
    MC-FTSA's selected plans it does {e not}: Prop. 4.3 only proves that
    each edge keeps one live link, and starvation cascades across tasks —
    a reproducible gap in the paper's argument that the test suite pins
    down with counterexamples.  On paper-sized graphs a strict MC-FTSA
    execution is in fact almost always defeated by [ε] failures.

    The {e reroute} policy models the benign repair the paper's crash
    experiments implicitly assume: a replica whose selected sender for
    some input is dead or starved falls back to the earliest copy from
    {e any} productive replica of that predecessor.  Rerouting restores
    the end-to-end guarantee (every live replica is productive, as in
    all-to-all) while still using the selected links whenever they are
    alive; it leaves all-to-all plans' behaviour unchanged.  The figure
    harness uses it so that the MC-FTSA crash curves exist, as in the
    paper; EXPERIMENTS.md discusses the substitution.

    {2 The replay pass}

    One call runs the structural productivity pass {!survives} runs,
    then re-times the productive replicas in flat arrays indexed by
    [rid = task * (ε+1) + k]: effective-sender rows with one slot per
    (predecessor-row entry, receiver replica), filled for productive
    receivers only, in plan order, by one pass that reads each
    productive receiver's plan senders with one [Comm_plan.senders]
    walk; a successor
    CSR over the same entries; per-processor chains that walk each
    processor's planned order ({!Ftsched_schedule.Schedule.timeline},
    sorted once when the schedule was built) and skip the non-productive
    replicas; and Kahn's sweep over an int-array FIFO.  It performs the
    float operations of the list-and-Hashtbl reference pass
    [Crash_exec_ref] (under [test/oracle]) in the same order, and the
    two agree bit for bit ([test_sim], the fuzzer's executor-agreement
    oracle and the scale oracle check it).  On §6 instances (100 to 150
    tasks, m = 20, ε = 1 / 2 / 5, FTSA and MC-FTSA, exactly-ε subsets,
    [Reroute]) a call costs 0.53–0.61 ms against 1.85–2.05 ms for the
    reference, measured alternately in one process on a shared 2-vCPU
    virtual machine.  Only [dead] depends on the scenario.  The planned
    order is the schedule's own, read and never re-sorted by a call;
    what a per-schedule template could still hoist (the
    replica-to-processor table) is a single pass, and each scenario would
    still filter the chains, so there is no template, and [run] is the
    one entry point.

    The rows are addressed arithmetically from the plan's replica
    indices, so a plan must keep them in [0 … ε]
    ({!Ftsched_schedule.Validate.check} reports one that does not; the
    replay would read a neighbouring task's replica).

    {2 Why this is not a view over [Event_sim]}

    Crashes at time 0 are a special case of {!Event_sim}'s fail times, so
    this module was measured as a view over it: {!survives}, then the
    plan rewritten to each receiver's effective senders under [Reroute],
    then {!Event_sim.run_crash}.  The last measurement ran after
    [Event_sim] stopped sending message events under the contention-free,
    reliable network, on 960 runs (120 §6 instances at seed 2008, FTSA
    and MC-FTSA, 4 exactly-[ε] subsets each, 7 rounds, thread CPU clock,
    2 vCPUs).  Latencies matched bit for bit, but the view cost
    1.34–1.58 ms a call against 0.50–0.59 ms for the flat pass above
    (2.6–2.7×), and 1.52–1.81 ms against 0.55–0.66 ms on the FTSA plans
    alone, which need no rewrite.  At 8 calls per instance that would
    about double [paper-campaign]'s replay time, so the dedicated timing
    pass stays. *)

type policy =
  | Strict  (** plan senders only; starvation cascades *)
  | Reroute  (** fall back to any productive sender of the predecessor *)

type replica_outcome =
  | Completed of { start : float; finish : float }
  | Starved  (** alive processor, but some input never arrives *)
  | Dead  (** hosted on a failed processor *)

type t = {
  latency : float option;
      (** achieved latency: [max over exit tasks of (min over completed
          replicas of finish)]; [None] if some task never completes. *)
  outcomes : replica_outcome array array;  (** per task, per replica *)
}

val survives :
  ?policy:policy -> Ftsched_schedule.Schedule.t -> Scenario.t -> bool
(** The structural verdict, without timing: [true] iff every task keeps a
    {e productive} replica — one on a live processor whose every input is
    fed by a productive replica of the predecessor (a plan sender under
    [Strict], any replica under [Reroute], which makes [Reroute] survival
    "every task keeps a replica on a live processor").  This is the pass
    {!run} re-times, so [survives ?policy s sc] is
    [(run ?policy s sc).latency <> None].  Default policy and
    [Invalid_argument] as for {!run}. *)

val run : ?policy:policy -> Ftsched_schedule.Schedule.t -> Scenario.t -> t
(** Default policy is [Strict].  Raises [Invalid_argument] naming the
    processor if the scenario fails one outside [\[0, m)]. *)

type defeat = { task : int; scenario : Scenario.t }
(** [task] is the first (lowest-id) task with no completed replica. *)

exception Defeated of defeat

val latency_result :
  ?policy:policy ->
  Ftsched_schedule.Schedule.t ->
  Scenario.t ->
  (float, defeat) result
(** Achieved latency, or a structured account of the defeat — the figure
    harness reports these instead of swallowing a generic [Failure]. *)

val latency_exn :
  ?policy:policy -> Ftsched_schedule.Schedule.t -> Scenario.t -> float
(** Achieved latency; raises {!Defeated} if the scenario defeated the
    schedule. *)

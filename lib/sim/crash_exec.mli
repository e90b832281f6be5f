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

    {2 Why this is not a view over [Event_sim]}

    Crashes at time 0 are a special case of {!Event_sim}'s fail times, so
    this module was measured as a view over it: 960 runs (120 §6
    instances, FTSA and MC-FTSA, 4 exactly-[ε] subsets each), with the
    plan rewritten to each receiver's effective senders under [Reroute].
    Latencies matched bit for bit under both policies, but each call was
    slower: 2.54–2.65 ms against 1.96–2.16 ms under [Reroute], and
    1.72–1.80 ms against 1.12–1.28 ms under [Strict].  That would push
    the crash-replay time of the paper-size benchmark workloads past
    their 25% regression bounds, so the dedicated timing pass stays. *)

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

(** Worst-case analysis of a schedule under untimed failures.

    [M] (eq. 4) upper-bounds the latency under any ε failures, but how
    tight is it?  {!analyze} replays the schedule against subsets of
    exactly [count] failed processors — every subset when [C(m, count)]
    is small enough, a seeded uniform sample beyond that — and reports
    the extremes: an oracle the heuristic's bound can be measured
    against, and a debugging tool that names the adversarial scenario.
    {!first_defeat} is the exhaustive survival check of Theorem 4.1 /
    Prop. 4.3: it names the first subset that defeats the schedule.
    For {e timed} adversaries (failures striking mid-run, links
    dropping) see {!Adversary}. *)

type stats = {
  best : float;  (** smallest achieved latency *)
  worst : float;  (** largest achieved latency *)
  worst_scenario : Scenario.t;
  mean : float;  (** over scenarios that delivered a latency *)
}

type report = {
  scenarios : int;  (** scenarios evaluated *)
  defeated : int;  (** scenarios with no achievable latency *)
  sampled : bool;
      (** [true] when [C(m, count)] exceeded [sample_limit] and the
          scenarios were sampled (with replacement) instead of
          enumerated — the extremes are then empirical, not certified *)
  stats : stats option;
      (** [None] when every evaluated scenario was defeated *)
}

val analyze :
  ?policy:Crash_exec.policy ->
  ?sample_limit:int ->
  ?samples:int ->
  ?seed:int ->
  ?jobs:int ->
  Ftsched_schedule.Schedule.t ->
  count:int ->
  report
(** [analyze s ~count] evaluates failure subsets of exactly [count]
    processors: exhaustively while [C(m, count) <= sample_limit]
    (default 200,000), otherwise [samples] (default 20,000) seeded
    uniform draws with the report flagged [sampled].  Defeated scenarios
    are counted and excluded from the latency extremes.  The replays fan
    out over [jobs] domains (default {!Ftsched_par.Par.default_jobs});
    the report is bit-identical for any worker count.  Raises
    [Invalid_argument] on a [count] outside [[0, m]]. *)

val first_defeat :
  ?policy:Crash_exec.policy ->
  Ftsched_schedule.Schedule.t ->
  count:int ->
  Scenario.t option
(** The exhaustive survival check: the first subset of exactly [count]
    processors, in {!Scenario.all_of_size} order, under which
    {!Crash_exec.survives} fails, or [None] when every such subset is
    survived (smaller subsets are then survived too: killing more
    processors never revives a replica).  Stops at the first defeat;
    the subset count is [C(m, count)], so this is meant for small
    platforms.  Default policy [Strict]; raises [Invalid_argument] on a
    [count] outside [[0, m]]. *)

(** Drivers regenerating every figure and table of Section 6.

    Each driver sweeps granularity 0.2 … 2.0 and prints one row per
    granularity with one column per curve of the corresponding plot,
    normalized as described in EXPERIMENTS.md (latency divided by the
    instance's mean per-edge average communication cost).  The three
    panels of a figure share one simulation sweep, exactly as in the
    paper.  Every driver over the §6 workload draws its graphs from
    {!Workload.graphs}, so it fans out over
    {!Ftsched_par.Par.default_jobs} domains and its tables are
    bit-identical for any worker count. *)

type panels = {
  bounds : Ftsched_util.Table.t;
      (** panel (a): FTSA/FTBAR/MC-FTSA lower and upper bounds plus the
          two fault-free curves *)
  crash : Ftsched_util.Table.t;
      (** panel (b): achieved latency when processors actually crash *)
  overhead : Ftsched_util.Table.t;
      (** panel (c): fault-tolerance overhead (%) against fault-free
          FTSA, the formula of §6 *)
  mc_defeats : Ftsched_util.Table.t;
      (** diagnostic (not in the paper): fraction of ε-crash scenarios
          that defeat MC-FTSA under the strict execution policy *)
}

val figure :
  ?spec:Workload.spec ->
  ?master_seed:int ->
  ?crash_samples:int ->
  eps:int ->
  crash_counts:int list ->
  unit ->
  panels
(** [figure ~eps ~crash_counts ()] computes the three panels:
    Figure 1 is [~eps:1 ~crash_counts:[0;1]],
    Figure 2 [~eps:2 ~crash_counts:[0;1;2]],
    Figure 3 [~eps:5 ~crash_counts:[0;2;5]].
    [spec] defaults to {!Workload.quick}; pass {!Workload.paper} for the
    full 60-graph sweep.  The panels read one {!Runner.sweep}. *)

val figure4 :
  ?spec:Workload.spec ->
  ?master_seed:int ->
  ?crash_samples:int ->
  unit ->
  Ftsched_util.Table.t * Ftsched_util.Table.t
(** Figure 4: FTSA on a 5-processor platform with ε = 2 — (latency,
    overhead) tables for 0, 1 and 2 crashes, where the latency spread
    with the number of failures becomes visible.  These are {!figure}'s
    crash and overhead panels at [~eps:2 ~crash_counts:[0; 1; 2]] on
    that platform, restricted to the FTSA columns. *)

val table1 :
  ?sizes:int list ->
  ?m:int ->
  ?eps:int ->
  ?seed:int ->
  unit ->
  Ftsched_util.Table.t
(** Table 1: running time (CPU seconds per run, {!Runner.cpu_per_run})
    of FTSA, MC-FTSA and FTBAR on graphs
    of [sizes] tasks (default [[100; 500; 1000]]; the paper's full list is
    [[100; 500; 1000; 2000; 3000; 5000]]), [m] = 50 processors, ε = 5. *)

val paper_sizes : int list
(** [100; 500; 1000; 2000; 3000; 5000]. *)

val contention_ablation :
  ?spec:Workload.spec ->
  ?master_seed:int ->
  eps:int ->
  ports:int list ->
  unit ->
  Ftsched_util.Table.t
(** Beyond the paper (its §7 future work): failure-free achieved latency
    of FTSA vs MC-FTSA replayed through the event simulator under
    realistic communication models — contention-free plus one column pair
    per bounded multi-port width in [ports] ([1] = the one-port model).
    The paper conjectures MC-FTSA wins once links contend; this table
    quantifies by how much. *)

val reliability_ablation :
  ?spec:Workload.spec ->
  ?master_seed:int ->
  ?trials:int ->
  p_fail:float ->
  unit ->
  Ftsched_util.Table.t
(** Beyond the paper (its §7 future work): schedule reliability — the
    probability that the application completes when every processor
    independently fails with probability [p_fail] — as ε grows.  One row
    per ε with the Theorem-4.1 binomial bound, the Monte-Carlo estimate
    for FTSA, and the strict-policy estimate for MC-FTSA, whose collapse
    quantifies the end-to-end gap. *)

val procs_sweep :
  ?spec:Workload.spec ->
  ?master_seed:int ->
  ?crash_samples:int ->
  eps:int ->
  procs:int list ->
  unit ->
  Ftsched_util.Table.t
(** Beyond the paper: the full curve behind its Figure-4 observation
    (m = 20 hides the replication cost, m = 5 exposes it).  One row per
    platform size: fault-free latency, FTSA bounds, mean latency under ε
    crashes, and the fault-tolerance overhead — all at granularity 1.0. *)

val rftsa_ablation :
  ?spec:Workload.spec ->
  ?master_seed:int ->
  ?trials:int ->
  ?flaky_factor:float ->
  eps:int ->
  unit ->
  Ftsched_util.Table.t
(** Beyond the paper (its §7 future work): the reliability/latency
    trade-off of {!Ftsched_core.R_ftsa} on a platform where every second
    processor is [flaky_factor] (default 20) times more failure-prone.
    One row per latency-slack [alpha]; columns report normalized latency
    and Monte-Carlo mission reliability (the [alpha = 0] row is FTSA's
    processor choice). *)

type recovery_panels = {
  campaign : Ftsched_util.Table.t;
      (** exponential fault-injection campaign: one row per (failure
          intensity, detection latency) pair with strict defeat rates for
          static FTSA, static MC-FTSA, MC-FTSA + recovery and the
          unreplicated schedule + recovery, plus the recovered latency
          and the completed-task fraction of the unreplicated runs *)
  exact_eps : Ftsched_util.Table.t;
      (** exactly-ε panel: one row per detection latency under scenarios
          with exactly ε failing processors — the regime where Theorem
          4.1 guarantees FTSA completes but the strict MC-FTSA cascade
          collapses (Finding 1); with recovery the defeat rate must be
          exactly zero *)
}

val recovery_ablation :
  ?spec:Workload.spec ->
  ?master_seed:int ->
  ?scenarios_per_graph:int ->
  ?eps:int ->
  ?intensities:float list ->
  ?delta_factors:float list ->
  unit ->
  recovery_panels
(** Beyond the paper (A5): the online failure detection and recovery
    runtime of {!Ftsched_recovery.Recovery}.  Failure times are drawn
    from per-processor exponential laws with rate [intensity / horizon]
    (so each intensity is the expected number of failures per processor
    over the static FTSA horizon, [Schedule.latency_upper_bound]);
    detection latency is [delta_factor *. horizon].  Latencies are
    normalized by the instance's mean per-edge communication cost and
    averaged over completed runs only. *)

val link_loss_ablation :
  ?spec:Workload.spec ->
  ?master_seed:int ->
  ?scenarios_per_graph:int ->
  ?eps:int ->
  ?losses:float list ->
  ?retries:int ->
  unit ->
  Ftsched_util.Table.t
(** Beyond the paper (A6): link failures and retransmission.  No
    processor dies; every inter-processor message is lost independently
    with the row's probability (and re-sent up to [retries] times in the
    RT columns).  One row per loss rate: defeat rates for FTSA's
    redundant (ε+1)² messaging vs MC-FTSA's one-to-one plan with
    retransmission off ([noRT], retries = 0) and on ([RT]), the
    completed-task fraction of the defeated static MC runs, the mean
    retransmission count, and MC-FTSA under the recovery runtime (whose
    controller-priced re-sends stay reliable, so it should drive defeats
    to zero).  The headline claim: MC's defeat rate exceeds FTSA's at
    every loss rate with retransmission off, and the gap narrows with it
    on. *)

val adversary_table :
  ?spec:Workload.spec ->
  ?master_seed:int ->
  eps:int ->
  unit ->
  Ftsched_util.Table.t
(** Beyond the paper: the adversarial timed worst case
    ({!Ftsched_sim.Adversary.search}, [eps] deaths plus one link
    blackout) of one FTSA and one MC-FTSA schedule of the spec's
    instance 0 at granularity 1.0.  One row per algorithm: certified or
    empirical verdict, the untimed exhaustive worst, the timed worst and
    the simulator runs spent. *)

val redundancy_ablation :
  ?spec:Workload.spec ->
  ?master_seed:int ->
  ?scenarios_per_graph:int ->
  eps:int ->
  unit ->
  Ftsched_util.Table.t
(** Beyond the paper: strict-policy defeat rate and message count of the
    redundant MC-FTSA variant as the per-input sender count sweeps from 1
    (the paper's MC-FTSA) to [eps+1] (FTSA's full fan-in), quantifying
    the end-to-end-robustness gap documented in DESIGN.md. *)

val stream_ablation :
  ?master_seed:int ->
  ?seeds_per_point:int ->
  ?rates:float list ->
  ?crash_rates:float list ->
  unit ->
  Ftsched_util.Table.t
(** Beyond the paper (A7): online streaming under chaos.  A grid of
    arrival rate x crash rate; each cell runs [seeds_per_point] seeded
    stream traces twice — with shadow plans (precomputed recovery
    re-injection, stale plans re-planned at latency delta) and without
    (static eps+1 replication only) — and reports the merged
    throughput, deadline-miss ratio, shadow hit/stale counts and the
    never-lost oracle verdict.  The headline claim: with crashes, the
    shadow column shows strictly fewer deadline misses than the static
    column, because mid-stream re-injection converts aborts and partial
    completions back into (possibly late) completions. *)

val tournament_matrix :
  ?master_seed:int ->
  ?pairs:int ->
  ?iters:int ->
  unit ->
  Ftsched_util.Table.t
(** Beyond the paper (A8): pairwise-dominance matrix from the
    instance-space adversarial tournament
    ({!Ftsched_tournament.Tournament}).  Cell (A, B) is the best
    makespan ratio [M_A(I) / M_B(I)] the annealer found over mutated
    instances — large off-diagonal values are the instances the random
    campaigns average away.  The first [pairs] ordered policy pairs are
    searched for [iters] proposals each, in parallel; bit-identical for
    any worker count. *)

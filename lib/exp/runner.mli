(** Per-instance measurements behind every figure of Section 6.

    For one random instance this module runs every scheduler the figures
    compare — FTSA, MC-FTSA (greedy selection, as evaluated in the paper),
    FTBAR, and the fault-free variants — extracts the latency bounds
    [M*]/[M], and replays the schedules under randomly drawn crash
    scenarios with the {!Ftsched_sim.Crash_exec} simulator (reroute
    policy, see that module on why).

    Results are raw latencies; {!Figures} normalizes and averages them. *)

type algo = Ftsa | Mc_ftsa | Ftbar
type per_algo = { ftsa : float; mc_ftsa : float; ftbar : float }

type graph_result = {
  normalizer : float;  (** the normalizer of the {!Workload.graph} *)
  mc_strict_defeated : float;
      (** fraction of sampled ε-crash scenarios that defeat MC-FTSA under
          the strict (paper-literal) execution policy — the end-to-end
          gap documented in DESIGN.md *)
  lower_bounds : per_algo;  (** [M*] (eqs. 2/4) *)
  upper_bounds : per_algo;  (** [M] *)
  fault_free_ftsa : float;  (** FTSA latency at ε = 0 *)
  fault_free_ftbar : float;  (** FTBAR latency at npf = 0 *)
  crash_latencies : (int * per_algo) list;
      (** per crash count, in [crash_counts] order: mean achieved latency
          over the crash scenarios with that many failed processors *)
}

(** One number a figure reads off a {!graph_result}. *)
type metric =
  | Lower of algo
  | Upper of algo
  | Fault_free_ftsa
  | Fault_free_ftbar
  | Crash of algo * int  (** achieved latency under that many crashes *)

val value : graph_result -> metric -> float
(** Raw (unnormalized) value.  Raises [Invalid_argument] for a
    [Crash (_, k)] whose count [k] the graph was not replayed with. *)

val run_graph :
  Workload.graph ->
  eps:int ->
  crash_counts:int list ->
  ?crash_samples:int ->
  unit ->
  graph_result
(** [run_graph g ~eps ~crash_counts ()] measures one graph, scheduling
    with [g.seed].  [crash_counts] lists the failure multiplicities to
    replay for the crash panels (e.g. [[0; 1]] for Figure 1(b));
    [crash_samples] scenarios are drawn per multiplicity (default 3). *)

val run_point :
  Workload.spec ->
  master_seed:int ->
  granularity:float ->
  eps:int ->
  crash_counts:int list ->
  ?crash_samples:int ->
  unit ->
  graph_result list
(** {!run_graph} over the graphs of one figure point ({!Workload.graphs}). *)

val sweep :
  Workload.spec ->
  master_seed:int ->
  eps:int ->
  crash_counts:int list ->
  ?crash_samples:int ->
  unit ->
  (float * graph_result list) list
(** {!run_point} at every granularity of {!Workload.granularities}, in
    order, the points fanned out over the domain pool.  Every figure and
    the claims verifier read this one sweep. *)

val mean : (graph_result -> float) -> graph_result list -> float
(** Mean of a per-graph number over the point's graphs, summed in order. *)

val mean_of : graph_result list -> metric -> float
(** Mean of one normalized metric over the point's graphs ([value /
    normalizer], per graph). *)

val cpu_per_run : (unit -> 'a) -> float
(** CPU seconds per call of the thunk: after a full major collection, the
    thunk runs back to back until the runs have taken at least 10 ms. *)

(** A scheduling problem instance: a task graph bound to a platform.

    Holds the computational-heterogeneity function [E : V × P → R⁺] of §2
    as a dense [v × m] matrix, and exposes the derived average quantities
    ([E̅(t)], [W̅(ti,tj)]) that the static bottom levels and FTBAR's
    pressure function consume. *)

type t

val create :
  dag:Ftsched_dag.Dag.t ->
  platform:Ftsched_platform.Platform.t ->
  exec:float array array ->
  t
(** [create ~dag ~platform ~exec] checks that [exec] is [v × m] with
    strictly positive finite entries and freezes the instance. *)

val dag : t -> Ftsched_dag.Dag.t
val platform : t -> Ftsched_platform.Platform.t

val n_tasks : t -> int
val n_procs : t -> int

val exec : t -> Ftsched_dag.Dag.task -> Ftsched_platform.Platform.proc -> float
(** [exec t task p] is [E(task, Pp)]. *)

val exec_row : t -> Ftsched_dag.Dag.task -> float array
(** [exec_row t task] is the row [E(task, ·)], indexed by processor —
    for hot loops, where {!exec} would box every read.  The instance's
    own array: read-only. *)

val avg_exec : t -> Ftsched_dag.Dag.task -> float
(** [E̅(t) = (Σ_j E(t,Pj)) / m]. *)

val min_exec : t -> Ftsched_dag.Dag.task -> float
val max_exec : t -> Ftsched_dag.Dag.task -> float

val mean_task_exec : t -> float
(** Mean of [E̅(t)] over all tasks — the latency normalizer used by the
    experiment reports. *)

val comm_time :
  t -> volume:float -> src:Ftsched_platform.Platform.proc -> dst:Ftsched_platform.Platform.proc -> float
(** [W(ti,tj) = V(ti,tj) · d(Pk,Ph)]; zero when [src = dst]. *)

val avg_comm_time : t -> volume:float -> float
(** [W̅ = V · d̄] with [d̄] the platform's average unit delay. *)

val edge_avg_comm : t -> Ftsched_dag.Dag.edge -> float
(** [W̅] for a DAG edge (uses its volume). *)

val scale_exec : t -> factor:float -> t
(** Instance with all execution costs multiplied by [factor > 0]; the
    granularity-sweep knob. *)

val pp : Format.formatter -> t -> unit

(** {1 Generators} *)

val random_exec :
  Ftsched_util.Rng.t ->
  dag:Ftsched_dag.Dag.t ->
  platform:Ftsched_platform.Platform.t ->
  ?task_weight:float * float ->
  ?proc_speed:float * float ->
  ?inconsistency:float ->
  unit ->
  t
(** Unrelated-machines cost matrix in the classic
    weight × speed × noise form:
    [E(t,p) = w_t · s_p · u] with [w_t ~ U task_weight] (default [50,150)),
    [s_p ~ U proc_speed] (default [0.5,2)), and
    [u ~ U[1-inconsistency, 1+inconsistency)] (default 0.5) providing the
    per-pair inconsistency that makes the platform truly heterogeneous. *)

val of_task_costs :
  Ftsched_util.Rng.t ->
  dag:Ftsched_dag.Dag.t ->
  costs:float array ->
  platform:Ftsched_platform.Platform.t ->
  ?inconsistency:float ->
  unit ->
  t
(** Lift homogeneous per-task costs (e.g. from an STG import) to an
    unrelated-machines matrix: [E(t,p) = costs.(t) · u] with
    [u ~ U[1-inconsistency, 1+inconsistency)] per pair (default 0.25).
    Zero costs (STG's dummy entry/exit nodes) are clamped to a tiny
    positive value. *)

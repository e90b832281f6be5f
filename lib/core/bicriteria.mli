(** The alternative objective functions of §4.3.

    FTSA as published fixes [ε] and minimizes latency.  This module covers
    the two other corners of the bi-criteria problem:

    - {e latency fixed}: maximize the number of supported failures by
      binary search on [ε] (each probe is one FTSA run);
    - {e both fixed}: run FTSA under per-task deadlines and abort early
      when the combination is infeasible. *)

type bound =
  | Lower_bound  (** compare the fixed latency against [M*] (eq. 2) *)
  | Upper_bound
      (** compare against the guaranteed latency [M] (eq. 4) — the sound
          choice when the guarantee must hold under failures *)

val max_supported_failures :
  ?seed:int ->
  ?bound:bound ->
  Ftsched_model.Instance.t ->
  latency:float ->
  (int * Ftsched_schedule.Schedule.t) option
(** [max_supported_failures inst ~latency] is the largest [ε] (with its
    schedule) whose chosen latency bound does not exceed [latency], found
    by binary search over [0 … m-1] ([bound] defaults to [Upper_bound]),
    each probe one FTSA run.  [None] if even [ε = 0] misses
    the target.  As in the paper, the search assumes the bound grows with
    [ε] — true in practice though not guaranteed for a heuristic. *)

val latency_profile :
  ?seed:int ->
  Ftsched_model.Instance.t ->
  max_eps:int ->
  (int * float * float) list
(** [(ε, M*, M)] for every ε from 0 to [max_eps] — the raw material of
    the latency/fault-tolerance trade-off curve (each point is one FTSA
    run).  [max_eps] is clamped to [m-1]. *)

type infeasible = {
  task : Ftsched_dag.Dag.task;
  deadline : float;
  finish : float;
}

val with_deadlines :
  ?seed:int ->
  Ftsched_model.Instance.t ->
  eps:int ->
  latency:float ->
  (Ftsched_schedule.Schedule.t, infeasible) result
(** [with_deadlines inst ~eps ~latency] runs the dual-fixed variant:
    deadlines from {!Ftsched_model.Deadline.compute}, checked after every
    processor selection; the first violated deadline aborts with its
    witness, mirroring the "Failed to satisfy both criteria" exit of the
    paper. *)

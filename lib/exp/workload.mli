(** The randomized workload of the paper's Section 6.

    "The number of tasks is chosen uniformly from the range [100, 150].
    The granularity of the task graph is varied from 0.2 to 2.0, with
    increments of 0.2.  The number of processors is set to 20 …  the unit
    message delay of the links and the message volume between two tasks
    are chosen uniformly from the ranges [0.5, 1] and [50, 150]
    respectively.  Each point in the figures represents the mean of
    executions on 60 random graphs." *)

type spec = {
  n_procs : int;
  tasks_lo : int;
  tasks_hi : int;
  delay_lo : float;
  delay_hi : float;
  volume_lo : float;
  volume_hi : float;
  graphs_per_point : int;
}

val paper : spec
(** The exact Section 6 parameters (60 graphs per point, 20 processors). *)

val quick : spec
(** Same distributions with 8 graphs per point — the default of
    [ftsched experiment], so the whole harness executes in minutes. *)

val granularities : float list
(** 0.2, 0.4, …, 2.0. *)

val with_procs : spec -> int -> spec
val with_graphs_per_point : spec -> int -> spec

val instance :
  spec -> master_seed:int -> granularity:float -> index:int ->
  Ftsched_model.Instance.t
(** [instance spec ~master_seed ~granularity ~index] builds the [index]-th
    random instance of a figure point, rescaled to the requested
    granularity.  The generator stream is derived from
    [(master_seed, granularity, index)] only, so any point of any figure
    can be regenerated in isolation. *)

val sized : seed:int -> n_tasks:int -> m:int -> Ftsched_model.Instance.t
(** A Table 1 instance: a layered DAG of [n_tasks] tasks with the paper's
    volume and delay ranges on [m] processors, at its generated
    granularity. *)

type graph = {
  instance : Ftsched_model.Instance.t;
  seed : int;  (** the seed the graph's schedulers and scenarios derive from *)
  normalizer : float;
      (** mean over DAG edges of [W̄(e)], the latency-normalization
          constant of the reports *)
}
(** One graph of a figure point, as every driver sees it. *)

val graphs :
  spec -> master_seed:int -> granularity:float -> (graph -> 'a) -> 'a list
(** [graphs spec ~master_seed ~granularity f] is [f] over the
    [spec.graphs_per_point] graphs of one point, in index order: graph
    [index] is {!instance}[ ~index], its seed the master seed plus 31
    times the index.  The graphs fan out over
    {!Ftsched_par.Par.default_jobs} domains; [f] must derive any
    randomness from the graph's seed, so the list is bit-identical for
    any worker count. *)

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

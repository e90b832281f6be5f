(** Fault-tolerant schedules: the output of FTSA, MC-FTSA and FTBAR.

    A schedule assigns every task [ε+1] replicas on distinct processors,
    each with two (start, finish) interval estimates:

    - the {e optimistic} times follow equation (1) of the paper — a replica
      starts as soon as the {e first} copy of each input arrives — whose
      maximum over exit tasks is the lower bound [M*] (eq. 2), reached
      when no processor fails;
    - the {e pessimistic} times follow equation (3) — every input counted
      at its {e last} arriving copy — whose maximum is the upper bound
      [M] (eq. 4), guaranteed even under [ε] failures (Prop. 4.2).

    For plans with selected communications (MC-FTSA) each replica has a
    single sender per input so both estimates coincide. *)

type replica = {
  task : Ftsched_dag.Dag.task;
  index : int;  (** replica number, 0 … ε *)
  proc : Ftsched_platform.Platform.proc;
  start : float;  (** optimistic start *)
  finish : float;  (** optimistic finish = start + E(task, proc) *)
  pess_start : float;
  pess_finish : float;
}

type t

val create :
  instance:Ftsched_model.Instance.t ->
  eps:int ->
  replicas:replica array array ->
  comm:Comm_plan.t ->
  t
(** [create ~instance ~eps ~replicas ~comm] wraps scheduler output.
    [replicas.(task)] must hold exactly [ε+1] entries in replica-index
    order.  It orders each processor's replicas once ({!timeline}).
    Structural errors raise [Invalid_argument], among them a
    replica time that is NaN or infinite
    (["Schedule.create: replica time not finite"]); semantic checks
    (precedence feasibility, Prop. 4.1, …) live in {!Validate}.  Of a
    selected plan only the row count is checked here: a pair naming a
    replica above [ε] is accepted, and {!Validate.check} reports it.
    The replays ([Ftsched_sim.Event_sim], [Ftsched_sim.Crash_exec])
    read the plan's indices arithmetically (a replica's row is
    [task × (ε+1) + index]), so they require every index in [0 … ε]:
    validate a plan from outside the schedulers before replaying it. *)

val instance : t -> Ftsched_model.Instance.t
val eps : t -> int

val n_replicas : t -> int
(** [ε + 1]. *)

val comm : t -> Comm_plan.t

val replicas : t -> Ftsched_dag.Dag.task -> replica array
val replica : t -> Ftsched_dag.Dag.task -> int -> replica

val proc_of : t -> Ftsched_dag.Dag.task -> int -> Ftsched_platform.Platform.proc

val replica_on : t -> Ftsched_dag.Dag.task -> proc:Ftsched_platform.Platform.proc -> replica option
(** The task's replica hosted on [proc], if any. *)

val assigned_procs : t -> Ftsched_dag.Dag.task -> Ftsched_platform.Platform.proc array
(** The processor set [A(t)], in replica order. *)

val mapping_matrix : t -> bool array array
(** The [v × m] matrix [X] of §2: [X.(i).(k)] iff some replica of task [i]
    runs on processor [k]. *)

val timeline : t -> Ftsched_platform.Platform.proc -> replica array
(** The replicas hosted on a processor in their planned order: by
    optimistic start, then task, then replica index descending (the index
    only matters for a malformed plan that puts two replicas of one task
    on one processor).  {!create} orders every processor once; every
    simulator, validator and planner reads this order.  Each call returns
    a fresh copy. *)

val latency_lower_bound : t -> float
(** [M*] (eq. 2): [max over exits of (min over replicas of finish)]. *)

val latency_upper_bound : t -> float
(** [M] (eq. 4): [max over exits of (max over replicas of pess_finish)]. *)

val inter_processor_messages : t -> int
(** Number of actual inter-processor messages implied by the plan,
    counting the paper's intra-processor shortcut: under all-to-all, a
    destination replica colocated with some source replica receives its
    input locally and nobody else sends to it. *)

val total_comm_volume : t -> float
(** Sum of volumes over counted inter-processor messages. *)

val busy_time : t -> Ftsched_platform.Platform.proc -> float
(** Total optimistic execution time hosted on the processor, summed over
    its {!timeline} in planned order. *)

val pp_summary : Format.formatter -> t -> unit

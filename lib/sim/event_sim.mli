(** Discrete-event execution of a schedule with timed fail-stop failures.

    An extension beyond the paper's evaluation (which fails processors
    from the start): here each processor [p] dies at a given instant
    [fail_times.(p)] ([infinity] = never).  Execution follows the static
    schedule faithfully:

    - each live processor runs its planned replica sequence in order,
      skipping replicas that can never receive their inputs;
    - a replica starts once the processor is free and one copy of every
      input has physically arrived (active replication: the first copy
      wins, later copies are ignored);
    - a replica completes only if its processor survives until its finish
      time; completions emit messages to the successor replicas allowed
      by the communication plan (messages in flight survive the sender's
      subsequent death — fail-silent processors, reliable links);
    - a replica whose inputs can never arrive, or whose processor dies
      first, is lost; losses cascade along the plan.

    With [fail_times.(p) = 0] for a set of processors this reproduces the
    {!Crash_exec} semantics exactly — the test suite checks that the two
    independent implementations agree.

    {b Communication faults.}  With [~faults] (see
    {!Scenario.comm_faults}) links are no longer reliable: each
    inter-processor transfer attempt is lost with probability [loss] or
    when its arrival instant falls inside an outage window of its link.
    The sender runs a retransmission protocol — it notices a lost attempt
    at an ack timeout of [rtt_factor *. w] after departure ([w] the
    message's nominal transfer time), doubling the timeout on every
    retry (exponential backoff), and gives up after [retries] retries or
    at its own death, at which point the message is permanently lost and
    the receiver loses one potential sender, feeding the usual
    starvation cascade.  Intra-processor copies ([w = 0]) never fail.
    With [Scenario.reliable] (the default) the engine takes the exact
    unfaulted code path and draws no randomness, so results are
    bit-for-bit identical to runs without the [~faults] argument. *)

type network_model =
  | Contention_free
      (** the paper's model: any number of simultaneous transfers *)
  | Sender_ports of int
      (** each processor owns that many outgoing ports; a message occupies
          one port for its whole transfer time and messages queue FIFO by
          production time.  [Sender_ports 1] is the classic one-port
          model (Sinnen & Sousa [25]), [Sender_ports k] the bounded
          multi-port model (Hong & Prasanna [13]) — the two models the
          paper's conclusion names as future work.  Intra-processor
          transfers are free and bypass the ports. *)
  | Duplex_ports of int
      (** the "telephone" refinement: a transfer simultaneously occupies
          one outgoing port of the sender and one incoming port of the
          receiver for its whole duration, so its departure waits for
          both endpoints.  [Duplex_ports 1] is the strict bidirectional
          one-port model. *)

type outcome =
  | Completed of { start : float; finish : float }
  | Lost

type result = {
  latency : float option;
      (** [max over exit tasks of (min over completed replicas of finish)],
          or [None] when some task never completes anywhere. *)
  outcomes : outcome array array;  (** per task, per replica *)
  events_processed : int;  (** simulator effort, for the curious *)
  retransmissions : int;
      (** message attempts re-sent after a loss (0 without [~faults]) *)
  lost_messages : int;
      (** messages permanently lost — retries exhausted or sender died
          before it could re-send *)
}

val first_finish : result -> Ftsched_dag.Dag.task -> float
(** Earliest finish of any completed replica of the task, [infinity] if
    none completed — the [~first_finish] of
    {!Ftsched_schedule.Metrics.degraded_of_run}. *)

type replica_state =
  | Waiting
  | Running of { start : float; finish : float }
  | Done of { start : float; finish : float }
  | Lost_replica

(** Stateful simulation engine.

    [run] below is a thin wrapper: create, drain, read the result.  The
    engine is exposed so that an online controller (see
    [Ftsched_recovery]) can interleave simulation with decisions: advance
    virtual time to a failure-detection instant, inspect replica states,
    kill doomed replicas and inject replacement replicas on surviving
    processors, then resume.

    Injected replicas are appended after the static replicas [0..eps] of
    their task, execute at the tail of their processor's FIFO queue, and
    receive each input either as a re-sent copy with a known arrival time
    ([Resend], for sources that already completed) or as a subscription to
    a not-yet-finished source replica ([On_completion], delivering a
    message with the usual communication cost and sender-death cut-off
    when that source completes). *)
module Engine : sig
  type t

  type source =
    | Resend of { arrival : float }
        (** a copy of the input reaches the injected replica at [arrival]
            (the caller prices the transfer; the engine trusts it).  An
            [infinity] arrival models a re-send that is physically cut off
            (e.g. the holder is dead but the controller does not know
            yet): it counts as a potential sender that never delivers.
            Finite arrivals must not lie in the past. *)
    | On_completion of { src_task : int; src_rep : int }
        (** deliver when that replica of the predecessor task completes;
            invalid if it is already [Done] (use [Resend]) or lost *)

  val create :
    ?network:network_model ->
    ?faults:Scenario.comm_faults ->
    ?release:float array ->
    Ftsched_schedule.Schedule.t ->
    fail_times:float array ->
    t
  (** [?release] (one instant per processor, default all zero) models
      residual occupancy: processor [p] is busy with foreign work until
      [release.(p)] and cannot start a replica before — the execution
      counterpart of scheduling against residual timelines
      ({!Ftsched_kernel.Driver.run}'s [?release]).  Raises
      [Invalid_argument] on a malformed [fail_times]/[release] length, a
      negative/NaN/infinite release entry, a loss probability outside
      [[0, 1]], negative retries, or an outage naming a processor the
      platform does not have. *)

  type template
  (** The fail-time-independent part of an engine for one
      [(schedule, release)] pair: input/emission tables unrolled from the
      DAG and the communication plan, pristine pending-sender counts and
      planned per-processor queues.  Immutable and shareable — building
      one costs the full analysis, forking engines from it only copies
      the mutable state. *)

  val template :
    ?release:float array -> Ftsched_schedule.Schedule.t -> template
  (** Prepare the shared tables.  Raises [Invalid_argument] on a
      malformed [release] (same checks as {!create}). *)

  val of_template :
    ?network:network_model ->
    ?faults:Scenario.comm_faults ->
    template ->
    fail_times:float array ->
    t
  (** Fork a fresh engine from the shared tables.
      [of_template (template ?release s) ~fail_times] is equivalent to
      [create ?release s ~fail_times] — bit for bit.  The stream
      runtime's shadow-plan loop forks one template once per candidate
      crash instead of re-deriving the tables [m] times. *)

  val advance_until : t -> float -> unit
  (** Process every pending event with timestamp [<= horizon]; virtual
      time ends at [max horizon (last event processed)] (an infinite
      horizon leaves time at the last event). *)

  val drain : t -> unit
  (** Process all remaining events. *)

  val now : t -> float
  val events_processed : t -> int

  val n_replicas : t -> int -> int
  (** Static [eps + 1] plus any injected replicas of the task. *)

  val replica_state : t -> task:int -> rep:int -> replica_state
  val replica_proc : t -> task:int -> rep:int -> int

  val input_satisfied : t -> task:int -> rep:int -> pos:int -> bool
  (** Has a copy of in-edge [pos] (its position in the task's
      {!Ftsched_dag.Dag.Csr} predecessor row) already arrived at this
      replica? *)

  val free_at : t -> int -> float
  (** Instant from which the processor can start its next replica. *)

  val kill_replica : t -> task:int -> rep:int -> unit
  (** Lose a [Waiting] replica now, cascading as usual.  No-op on [Done]
      or already-lost replicas; invalid on a [Running] one (a running
      replica can only be cut down by its processor's death). *)

  val inject : t -> task:int -> proc:int -> inputs:source list array -> int
  (** Add a replica of [task] at the tail of [proc]'s queue.  [inputs]
      has one non-empty source list per in-edge of the task (in
      predecessor-row order).  Returns the new replica index.  The engine
      does not check [proc] against [fail_times]: re-mapping onto a
      dead-but-undetected processor is a legitimate (and costly) move. *)

  val result : t -> result
  (** Call after [drain]; replicas not [Done] are reported [Lost]. *)
end

val run :
  ?network:network_model ->
  ?faults:Scenario.comm_faults ->
  ?release:float array ->
  Ftsched_schedule.Schedule.t ->
  fail_times:float array ->
  result
(** [fail_times] has one entry per processor.  [network] defaults to
    [Contention_free]; [faults] to {!Scenario.reliable}; [release] to
    all-idle (see {!Engine.create}). *)

val run_timed :
  ?network:network_model ->
  ?faults:Scenario.comm_faults ->
  ?release:float array ->
  Ftsched_schedule.Schedule.t ->
  Scenario.timed list ->
  result
(** Convenience wrapper building [fail_times] from a timed scenario. *)

val run_crash :
  ?network:network_model ->
  ?faults:Scenario.comm_faults ->
  Ftsched_schedule.Schedule.t ->
  Scenario.t ->
  result
(** All scenario processors dead from time 0 — comparable with
    {!Crash_exec.run}.  Raises [Invalid_argument] naming the processor if
    the scenario fails one outside [\[0, m)]. *)

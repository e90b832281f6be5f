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
      first, is lost; losses cascade along the plan;
    - the replica queued behind a lost one starts at the later of its
      inputs' arrival and its processor's free instant, even when that
      instant lies before the event that revealed the loss (say, the lost
      replica's last input arriving after its processor's crash).  The
      start rule is clairvoyant about losses, not FIFO-causal: in real
      time the processor would still be waiting on the lost replica, yet
      here the replica behind it can start, and complete, in the past.

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
    bit-for-bit identical to runs without the [~faults] argument.

    {b Message-free replay.}  Under [Contention_free] with reliable
    links a message's arrival is fixed when its sender completes, so the
    engine sends no arrival events between static replicas: it writes
    each input's earliest arrival at the sender's completion and queues
    one "inputs ready" event per replica.  Results and every replica,
    input and processor state the {!Engine} reports at any [now] are
    those of the per-message engine, bit for bit (mid-run,
    [events_processed] counts a folded arrival when its sender
    completes).  Port models, lossy links, outages and the inputs of
    injected replicas keep one event per message. *)

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

type row_state = Row_waiting | Row_running | Row_done | Row_lost
(** A replica's state without its times: what {!Engine.row_state}
    reads, with no record to allocate. *)

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
    (for sources that already completed) or as a subscription to a
    not-yet-finished source replica ({!Engine.on_completion}, delivering a
    message with the usual communication cost and sender-death cut-off
    when that source completes).  Who feeds an injected row is kept in
    one flat wiring table, read back by {!Engine.exists_source}. *)
module Engine : sig
  type t

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
      NaN fail time, a negative/NaN/infinite release entry, a loss
      probability outside [[0, 1]], negative retries, or an outage naming
      a processor the platform does not have.

      {b Cost.}  [create] reads the schedule directly: it sizes one input
      slot per (static replica, in-edge), counts the pending senders of a
      task's slots with one {!Ftsched_schedule.Comm_plan.sender_counts}
      walk over its predecessor row (under all-to-all by arithmetic), and
      copies each processor's planned order.  That is O(v·(ε+1) + e·(ε+1)²) time and
      O(v·(ε+1) + e·(ε+1)) words, with nothing kept per plan message:
      who sends to whom is asked of the plan when a sender completes or
      is lost.

      {b Emission order.}  When static replica [k] of task [t] completes
      (or is lost), one {!Ftsched_schedule.Comm_plan.receivers} walk over
      [t]'s successor row lists its receivers: out-edges in successor-row
      order, then, per edge, the plan row's pairs with source replica
      [k] in row order (under all-to-all the destination replicas
      [0 … ε]).  Messages take sequence numbers in that order, which the
      replay digests of a redundant plan (one source feeding two
      destinations) pin.  The walks nest — a loss cascading from inside
      one walks again — and each walk's output lives on a stack the
      engine owns until its loop ends.

      {b Plan indices.}  The replay reads the plan's replica indices
      arithmetically (receiver row = destination task × (ε+1) + index),
      so it requires every index in [0 … ε];
      {!Ftsched_schedule.Validate.check} reports a plan that breaks this,
      the replay does not. *)

  val advance_until : t -> float -> unit
  (** Process every pending event with timestamp [<= horizon]; virtual
      time ends at [max horizon (last event processed)] (an infinite
      horizon leaves time at the last event). *)

  val drain : t -> unit
  (** Process all remaining events. *)

  val now : t -> float

  val events_processed : t -> int
  (** Deliveries plus completions, the per-message count: a folded
      arrival counts when its sender completes. *)

  val heap_pops : t -> int
  (** Events popped from the engine's queue: completions, ready events
      and the arrivals still sent as events.  Never more than
      [events_processed]; far fewer under message-free replay. *)

  val n_replicas : t -> int -> int
  (** Static [eps + 1] plus any injected replicas of the task. *)

  val replica_state : t -> task:int -> rep:int -> replica_state
  val replica_proc : t -> task:int -> rep:int -> int

  val input_satisfied : t -> task:int -> rep:int -> pos:int -> bool
  (** Has a copy of in-edge [pos] (its position in the task's
      {!Ftsched_dag.Dag.Csr} predecessor row) arrived at this replica by
      [now]?  For a lost replica, by the instant it was lost. *)

  val free_at : t -> int -> float
  (** Instant from which the processor can start its next replica. *)

  (** {2 Rows}

      Every replica is one row of the engine's table, named by a row id:
      replica [rep <= eps] of [task] is row [task * (eps + 1) + rep], and
      injected replicas take the rows after [n_tasks * (eps + 1)] in
      injection order.  The accessors below read a row without building
      a {!replica_state}. *)

  val rid : t -> task:int -> rep:int -> int
  (** The row of that replica. *)

  val row_state : t -> int -> row_state
  val row_finish : t -> int -> float
  (** Finish of a [Row_running] or [Row_done] row (meaningless otherwise). *)

  val row_proc : t -> int -> int
  val row_task : t -> int -> int

  val row_input_satisfied : t -> int -> int -> bool
  (** [row_input_satisfied eng rid pos] is {!input_satisfied} of that row. *)

  val iter_hosted : t -> int -> (int -> unit) -> unit
  (** [iter_hosted eng p f] calls [f] on every row ever queued on
      processor [p]: its planned replicas, then those injected there. *)

  val drain_lost : t -> (int -> unit) -> unit
  (** Calls [f] on every row lost since the previous [drain_lost] (or
      since the engine was made), in loss order, and forgets them: crash
      physics, starvation cascades, exhausted retries and kills alike. *)

  val kill_replica : t -> task:int -> rep:int -> unit
  (** Lose a [Waiting] replica now, cascading as usual.  No-op on [Done]
      or already-lost replicas; invalid on a [Running] one (a running
      replica can only be cut down by its processor's death). *)

  val on_completion : float
  (** The arrival that subscribes an injected input to its source's
      completion ([neg_infinity], never a priced arrival). *)

  val inject :
    t ->
    task:int ->
    proc:int ->
    src_lo:int array ->
    src_row:int array ->
    src_at:float array ->
    int
  (** Add a replica of [task] at the tail of [proc]'s queue and return
      its replica index.  Its inputs come from three columns the caller
      owns (the engine copies what it keeps): the sources of in-edge
      [pos] (predecessor-row order) are the entries [i] from
      [src_lo.(pos)] to [src_lo.(pos + 1) − 1], at least one per input,
      so [src_lo] has at least [in_degree + 1] entries.  Entry [i] names
      a source row [src_row.(i)] (see {!rid}), a replica of that input's
      predecessor task, and how its copy arrives, [src_at.(i)]:
      - a priced arrival: a copy reaches the injected replica then (the
        caller prices the transfer; the engine trusts it).  [infinity]
        models a re-send that is physically cut off (the holder is dead
        but the controller does not know yet): it counts as a potential
        sender that never delivers.  A finite arrival must not lie
        before {!now};
      - {!on_completion}: deliver when the source row completes, with the
        usual communication cost and sender-death cut-off.  The source
        must not be done (price its arrival instead) or lost.

      Raises [Invalid_argument], before changing anything, on a task or
      processor out of range, an input without a source, a source row
      out of range or of another task, and on a NaN arrival: it would
      count as a sender that is never queued, and its replica would wait
      on it until lost.  The engine does not check [proc] against
      [fail_times]: re-mapping onto a dead-but-undetected processor is a
      legitimate (and costly) move. *)

  val exists_source : t -> int -> int -> (int -> bool) -> bool
  (** [exists_source eng rid pos f] tells whether [f] holds for a row
      wired to input [pos] of row [rid], trying them in wiring order and
      stopping at the first that does: a static row's plan senders of
      that input (the communication plan's pairs feeding its replica),
      an injected row's sources as given to {!inject}.  Allocates
      nothing. *)

  val result : t -> result
  (** Call after [drain]; replicas not [Done] are reported [Lost]. *)
end

(** The heap payload codec, exposed for its tests.  An event packs
    [(task, replica, position)] into one word at [payload_bits] bits a
    field; [pos = -1] is a completion, [pos >= 0] an arrival of that
    input (a ready event is packed as the arrival of the input that
    completes its replica's inputs).  A task of [2^payload_bits - 1]
    makes the word negative; decoding still returns the fields. *)
module Private : sig
  val payload_bits : int
  val encode : task:int -> rep:int -> pos:int -> int
  val decode : int -> int * int * int

  val check_tasks : int -> unit
  (** Raises [Invalid_argument] when that many tasks do not fit the
      encoding (at [2^payload_bits]); {!Engine.create} calls it. *)

  val check_replica : int -> unit
  (** Raises [Invalid_argument] when that replica index does not fit
      (at [2^payload_bits]); {!Engine.inject} calls it. *)
end

val run :
  ?network:network_model ->
  ?faults:Scenario.comm_faults ->
  ?release:float array ->
  Ftsched_schedule.Schedule.t ->
  fail_times:float array ->
  result
(** [fail_times] has one entry per processor ([infinity] = never fails;
    NaN is rejected with [Invalid_argument]).  [network] defaults to
    [Contention_free]; [faults] to {!Scenario.reliable}; [release] to
    all-idle (see {!Engine.create}). *)

val run_timed :
  ?network:network_model ->
  ?faults:Scenario.comm_faults ->
  ?release:float array ->
  Ftsched_schedule.Schedule.t ->
  Scenario.timed list ->
  result
(** Convenience wrapper building [fail_times] from a timed scenario.
    Raises [Invalid_argument] on a processor outside the platform or a
    NaN instant. *)

val run_crash :
  ?network:network_model ->
  ?faults:Scenario.comm_faults ->
  Ftsched_schedule.Schedule.t ->
  Scenario.t ->
  result
(** All scenario processors dead from time 0 — comparable with
    {!Crash_exec.run}.  Raises [Invalid_argument] naming the processor if
    the scenario fails one outside [\[0, m)]. *)

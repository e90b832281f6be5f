(** Crash-only scheduling-as-a-service daemon.

    One thread owns everything: a non-blocking [select] loop accepts
    connections, decodes {!Protocol} frames incrementally, answers
    [health]/[metrics] inline, and pushes work requests through a
    bounded admission queue.  [schedule] requests run any scheduler of
    {!Ftsched_core.Schedulers.all}, looked up by name.  Work executes in batches on the
    {!Ftsched_par.Par} Domain pool — every handler is a pure function
    of its request, so responses are byte-identical for any worker
    count — and successful responses are cached in an LRU keyed by the
    request digest.

    Robustness discipline:

    - every frame is bounds-checked from its header before any
      payload-sized allocation; adversarial bytes get typed
      {!Protocol.error} responses, never exceptions;
    - admission is typed: a full queue answers [overloaded] (and {e
      only} a full queue does — the accounting oracle checks), a budget
      the queue cannot meet answers [deadline-infeasible] using a
      residual-work estimate (the request-level analogue of
      {!Ftsched_stream.Admission}'s residual timelines), and a budget
      that runs out before execution answers [deadline-expired];
    - handler exceptions become typed [internal] responses; the loop
      survives anything a client can send;
    - writes are [SIGPIPE]-safe, idle connections are reaped, and
      {!stop} (or SIGTERM in the CLI) drains gracefully: stop
      accepting, finish or abandon queued work within a grace period
      with typed [draining] responses, flush, emit one final
      accounting line.

    {b The accounting oracle.}  Every accepted work request reaches
    exactly one typed fate; {!check_accounting} verifies the counters
    after (or during) a run and the chaos harness
    ({!Chaos_client}) asserts it after every campaign. *)

type address =
  | Unix_socket of string  (** path; a stale socket file is replaced *)
  | Tcp of { host : string; port : int }  (** [port = 0] auto-assigns *)

type config = {
  max_frame : int;  (** payload byte cap per frame *)
  capacity : int;  (** bounded work-queue depth *)
  cache_slots : int;  (** LRU entries *)
  idle_timeout : float;  (** seconds before an idle connection is reaped *)
  drain_grace : float;  (** seconds to finish queued work on shutdown *)
  max_tasks : int;  (** per-request instance cap, on top of Serialize's *)
  max_procs : int;
  max_stream_duration : float;  (** cap on [stream] request horizons *)
  jobs : int option;  (** Domain-pool workers; [None] = pool default *)
}

val default_config : config
(** 8 MiB frames, capacity 64, 256 cache slots, 30 s idle timeout,
    5 s drain grace, 20 000 tasks / 512 procs / duration 200 caps. *)

(** {1 Fates} *)

type fate =
  | Served_fresh  (** computed on the pool, response enqueued *)
  | Served_cached  (** answered from the LRU, byte-identical to cold *)
  | Rejected_overloaded  (** queue full at admission *)
  | Rejected_infeasible  (** admission estimate exceeded the budget *)
  | Rejected_malformed  (** body rejected by the hardened parser *)
  | Rejected_unsupported  (** scheduler not in {!Ftsched_core.Schedulers.all} *)
  | Expired  (** budget ran out before or during execution *)
  | Failed_internal  (** handler raised; typed [internal] response *)
  | Aborted_disconnect  (** connection died before the response *)
  | Drained  (** abandoned at shutdown, typed [draining] response *)

val fate_name : fate -> string
val all_fates : fate list

type metrics = {
  uptime : float;
  connections_accepted : int;
  connections_open : int;
  frames_received : int;
  protocol_errors : int;  (** malformed framing / request lines *)
  info_requests : int;  (** health + metrics, answered inline *)
  requests_accepted : int;  (** well-formed work requests *)
  queue_depth : int;
  queue_high_water : int;
  capacity : int;
  in_flight : int;
  overload_min_queue : int;
      (** smallest queue depth observed at an [overloaded] reject;
          [max_int] when none happened — the oracle requires
          [>= capacity] otherwise *)
  cache_hits : int;
  cache_misses : int;
  cache_entries : int;
  fate_counts : (fate * int) list;
}

val check_accounting : metrics -> string list
(** Empty = clean.  Checks: accepted = Σ fates + queued + in-flight;
    [overloaded] rejects only with a full queue; cache hit/served-cached
    agreement; non-negative counters. *)

val render_metrics : metrics -> string
(** The [ok metrics] response body: one [key value] line per counter. *)

val accounting_line : metrics -> string
(** The single summary line emitted on drain. *)

(** {1 Lifecycle} *)

type t

val create : ?config:config -> address -> t
(** Bind and listen (does not accept yet).  Raises [Unix.Unix_error] on
    bind failures and [Invalid_argument] on a nonsensical config. *)

val bound_port : t -> int option
(** The actual TCP port after [Tcp { port = 0 }] auto-assignment. *)

val serve : t -> metrics
(** Run the loop until {!stop}; then drain and return the final
    metrics.  Installs nothing process-global except ignoring SIGPIPE
    while running. *)

val stop : t -> unit
(** Thread- and signal-safe: flips the stop flag and wakes the loop. *)

val metrics : t -> metrics
(** Peek at the live counters (same-process observers only). *)

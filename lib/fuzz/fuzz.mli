(** Differential fuzzing of the scheduling pipeline.

    The paper's correctness claims are structural invariants — every
    task replicated on [ε+1] distinct processors (Prop. 4.1), per-edge
    one-to-one MC selections (Prop. 4.3), schedules that survive any
    [ε] crashes (Theorem 4.1) — and the repo now has four independent
    executors of those semantics ({!Ftsched_schedule.Validate}, the
    structural re-timing of {!Ftsched_sim.Crash_exec}, the event-driven
    {!Ftsched_sim.Event_sim}, and {!Ftsched_schedule.Serialize}'s
    round-trip).  Independent implementations drift silently; this
    harness makes the drift loud.

    Per seed it generates a small random instance, runs every scheduler
    of {!Ftsched_core.Schedulers.all} (or the list passed as
    [?schedulers]), and cross-checks four oracle families:

    - {b structural}: [Validate.check] plus [M* <= M];
    - {b survivability}: {!Ftsched_sim.Worst_case.first_defeat} finds
      no defeating ε-subset — strict for all-to-all plans (Theorem
      4.1), reroute for selected plans (the strict-policy gap of Prop.
      4.3 is documented and expected, so the strict policy is {e not} a
      survivability oracle there); a finding names the subset;
    - {b executor agreement}: [Crash_exec] (strict) and
      [Event_sim.run_crash] must report the same latency, bit for bit,
      on the fault-free scenario and every single-crash scenario, and
      the fault-free replay must not exceed [M*]; on the same scenarios
      each engine must return exactly what its frozen reference under
      [test/oracle] returns — [Event_sim_ref], and [Crash_exec_ref]
      under both the strict and the reroute policy;
    - {b round-trip}: [schedule_of_string ∘ schedule_to_string] is the
      identity (compared on the re-serialized bytes);
    - {b selection} (selected plans only): the schedule's pairs are
      one-to-one and admissible; on the reconstructed bipartite graph
      the flat [Edge_select] greedy, bottleneck and redundant (2
      senders) selectors and the bottleneck value equal the frozen
      list-based [Edge_select_ref]'s, whose greedy and bottleneck
      selections are one-to-one with [max_weight(bottleneck) =
      bottleneck_value <= max_weight(greedy)].

    A fifth family runs per trace seed rather than per scheduler:
    {b stream-lost}, the never-lost invariant of
    {!Ftsched_stream.Stream.check_report} over a chaotic streaming
    trace (crashes, outages, message loss) — no submitted job may end
    without a typed fate.

    A sixth family, {b parser-safety}, also runs per seed: serialized
    instance and schedule documents are truncated, bit-flipped,
    spliced with huge declared counts and shorn of lines, and every
    mutant must either parse or be rejected with the parser's typed
    exceptions ([Failure] / [Invalid_argument]) — never crash the
    process or escape with anything else.  This pins the
    {!Ftsched_schedule.Serialize} hardening caps in place for the
    network boundary ({!Ftsched_serve}), which feeds the same parser
    with adversarial bytes.

    On a violation the counterexample is shrunk — drop DAG
    sources/sinks, halve/decrement [ε], remove processors, ddmin over
    edge subsets — to a 1-minimal witness (no single remaining shrink
    step still fails), serialized under [_fuzz/], and reported with a
    replay command.

    Everything is a pure function of the seed, so campaigns parallelize
    over seeds with {!Ftsched_par.Par} and are bit-identical for any
    job count. *)

type case = {
  instance : Ftsched_model.Instance.t;
  eps : int;
  sched_seed : int;  (** seed handed to the scheduler (tie-breaking) *)
}

type oracle =
  | Crash  (** the scheduler itself raised *)
  | Structural
  | Survivability
  | Executor_agreement
  | Round_trip
  | Selection
  | Stream_lost
      (** the fifth family: {!Ftsched_stream.Stream.check_report} on a
          seeded streaming trace — a submitted job left without a typed
          fate, inconsistent accounting, or a deadline-violating fate *)
  | Parser_safety
      (** the sixth family: an adversarial mutant of a serialized
          document escaped {!Ftsched_schedule.Serialize} with something
          other than [Failure] / [Invalid_argument] *)

val oracle_name : oracle -> string
val oracle_of_name : string -> oracle option

type violation = { oracle : oracle; detail : string }

val gen_case : seed:int -> case
(** Deterministic random instance: 2–5 processors, 3–14 tasks drawn
    from five DAG families (layered, Erdős–Rényi, fork–join, out-tree,
    chain), random platform/cost matrices, [ε] in [0 .. min 2 (m-1)]. *)

val check : Ftsched_core.Schedulers.t -> case -> violation list
(** Run the scheduler on the case and evaluate every applicable oracle.
    Empty list = clean.  Exceptions anywhere in the pipeline become
    {!Crash} / per-oracle violations, never escape. *)

val stream_config : Ftsched_stream.Stream.config
(** The small chaotic fixture the stream oracle fuzzes: 4 processors,
    Poisson crashes and message loss, tight admission capacity. *)

val check_stream : seed:int -> violation list
(** Run one streaming trace on {!stream_config} and evaluate the
    never-lost oracle.  Exceptions become {!Stream_lost} violations,
    never escape.  Pure function of the seed. *)

val mutate_doc : Ftsched_util.Rng.t -> string -> string
(** One parser-safety mutant of a document, drawn from the generator:
    a truncation, up to eight bit flips, huge values spliced into every
    numeric word of one line, or one deleted line.  {!check_parser}
    draws its battery from this; the codec differential tests draw from
    it too. *)

val check_parser : seed:int -> violation list
(** Serialize the seed's random instance (and its FTSA schedule), run a
    deterministic battery of adversarial mutants — truncations, bit
    flips, huge spliced counts, deleted lines — through
    {!Ftsched_schedule.Serialize}, and report every mutant that escaped
    with anything but the typed [Failure] / [Invalid_argument]
    rejections (plus a pristine document that failed to parse).  Pure
    function of the seed. *)

val shrink :
  ?max_evals:int -> Ftsched_core.Schedulers.t -> case -> oracle -> case * int * int
(** [shrink sched case oracle] minimizes a failing case while the same
    oracle keeps failing.  Returns [(minimal, accepted_steps,
    evaluations)].  Deterministic; bounded by [max_evals] (default
    2000) oracle evaluations. *)

(** {2 Witness files} *)

type witness =
  | Instance of { scheduler : string; oracle : oracle; case : case }
      (** a (shrunk) instance that made [scheduler] fail [oracle] *)
  | Stream_seed of int  (** a trace seed for {!check_stream} *)
  | Parser_seed of int  (** a seed for {!check_parser} *)
  | Tournament of {
      policy_a : string;
      policy_b : string;
      metric : string;  (** tournament metric name, e.g. ["guaranteed"] *)
      ratio : float;  (** the makespan ratio the tournament reported *)
      case : case;
    }
      (** an adversarial instance found by the instance-space tournament
          ({!Ftsched_tournament}): the ordered policy pair it separates
          and the metric and ratio it was scored under *)
(** Every replayable case the fuzzer and the tournament save. *)

val write_witness : path:string -> ?notes:string list -> witness -> unit
(** One envelope for every kind: the ["ftsched-witness v2"] magic line,
    a [kind] header ([instance], [stream], [parser] or [tournament]),
    the kind's headers (floats in [%h] hex so the round trip is
    bit-exact), one [#] comment line per note, then — for the
    instance-carrying kinds — the {!Ftsched_schedule.Serialize} instance
    document. *)

val read_witness : path:string -> witness
(** Inverse of {!write_witness}; notes are ignored.  Raises [Failure]
    on any other magic (including the retired v1 formats), a missing or
    unknown [kind], a missing or malformed header, or a malformed
    instance document. *)

val witness_filename : seed:int -> witness -> string
(** The file name a witness is saved under: [seed<N>-<scheduler>-<oracle>],
    [stream-seed<N>], [parser-seed<N>] or [<A>-vs-<B>-seed<N>], with the
    [.case] suffix. *)

val replay :
  ?schedulers:Ftsched_core.Schedulers.t list ->
  string ->
  (string * violation list, string) result
(** [replay path] re-runs the oracles on a saved witness:
    [Ok (name, violations)] ([violations = []] means the bug no longer
    reproduces), or [Error] for an unreadable file / unknown scheduler.
    An [Instance] replays through its scheduler; a [Stream_seed] or
    [Parser_seed] re-runs its seed through {!check_stream} or
    {!check_parser}; a [Tournament] runs its instance through the
    {e full oracle battery} of {e both} policies (violation details
    prefixed with the policy name) — a found adversarial instance
    doubles as a fuzz seed. *)

val replay_corpus :
  ?schedulers:Ftsched_core.Schedulers.t list ->
  string ->
  (string * (string * violation list, string) result) list
(** [replay_corpus dir] replays every [*.case] file under [dir] (sorted
    by name, non-recursive): corpus regression testing for previously
    shrunk witnesses.  Each entry pairs the file path with its {!replay}
    result. *)

val replay_command : path:string -> string
(** The CLI invocation reported next to a saved witness. *)

(** {2 Campaigns} *)

type shrink_stats = {
  original : case;  (** the generated case before shrinking *)
  steps : int;  (** accepted shrink steps *)
  evaluations : int;  (** oracle evaluations spent shrinking *)
}

type finding = {
  seed : int;  (** the campaign seed that produced it *)
  witness : witness;
      (** the replayable case: the shrunk [Instance], or the
          [Stream_seed] / [Parser_seed] itself *)
  violations : violation list;  (** as evaluated on [witness] *)
  shrink : shrink_stats option;  (** [Instance] findings only *)
}

val run_seed : ?schedulers:Ftsched_core.Schedulers.t list -> int -> finding list
(** [run_seed seed] generates, checks every scheduler, shrinks every
    violation: one [Instance] finding per (scheduler, violated oracle).
    Pure function of the seed (and the scheduler list). *)

type report = {
  seeds_requested : int;
  seeds_run : int;  (** < requested only when [should_stop] fired *)
  schedulers_run : int;
  findings : (finding * string option) list;
      (** in seed order, with the witness path when saving was enabled *)
}

val campaign :
  ?schedulers:Ftsched_core.Schedulers.t list ->
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  ?dir:string ->
  ?save:bool ->
  seeds:int ->
  unit ->
  report
(** Fuzz seeds [0 .. seeds-1] — every scheduler ({!run_seed}), the
    stream oracle and the parser-safety oracle per seed — parallel over
    seeds ([jobs] worker domains, default
    {!Ftsched_par.Par.default_jobs}); results are bit-identical for any
    job count.  [should_stop] (the [--time-budget] hook) is polled
    between seed chunks: the run then stops early with [seeds_run <
    seeds_requested] — the only way output depends on anything but the
    seeds.  Witnesses are written under [dir] (default ["_fuzz"],
    created on demand) unless [save = false]; writing happens after the
    parallel phase, in seed order. *)

val pp_finding : Format.formatter -> finding -> unit
(** Headline, one line per violation, and the shrink statistics of an
    [Instance] finding.  Use inside a vertical box. *)

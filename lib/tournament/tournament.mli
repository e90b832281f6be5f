(** Instance-space adversarial tournament (PISA-style).

    The A1–A7 campaigns average over random graphs, which hides the
    instances where one policy dominates another (Coleman &
    Krishnamachari, arXiv 2403.07120).  This module searches {e instance
    space} directly: per ordered policy pair (A, B), a simulated
    annealer over {!Mutate.genome}s maximizes the makespan ratio
    [M_A(I) / M_B(I)], and every accepted incumbent is serialized as a
    replayable witness ({!Ftsched_fuzz.Fuzz.write_witness}).

    Ranking is NaN-safe by construction: outcomes are validated finite
    makespans or [Defeated], a defeated A against a surviving B scores
    [+infinity] (never NaN), a defeated B rejects the candidate, and
    every acceptance comparison goes through [Float.compare].

    Campaigns fan the pairs out over {!Ftsched_par.Par} with per-pair
    seeds derived as [seed + 31*i], so reports — and
    {!report_digest} — are bit-identical for any job count. *)

type metric =
  | Guaranteed
      (** the fault-free planned makespan bound
          [Schedule.latency_upper_bound] — cheap, always finite *)
  | Crash_worst
      (** worst strict-policy {!Ftsched_sim.Crash_exec} latency over
          the fault-free scenario plus {e every} exactly-[ε] crash
          subset; a defeat is possible and maps to {!Defeated} *)

val metric_name : metric -> string
val metric_of_name : string -> metric option

type outcome = Defeated | Makespan of float

val eval_policy :
  Ftsched_core.Schedulers.t ->
  metric:metric ->
  sched_seed:int ->
  Mutate.genome ->
  outcome option
(** [None] when the policy produced no valid schedule (raised, or
    failed [Validate.check]) — such candidates are rejected rather than
    scored, so tournament witnesses always replay through clean
    schedules (broken schedules are the fuzzer's department). *)

val ratio : a:outcome -> b:outcome -> float option
(** [M_A / M_B].  [b = Defeated] is [None] (candidate rejected);
    [a = Defeated] is [Some infinity]; NaN is never returned. *)

type pair_report = {
  policy_a : string;
  policy_b : string;
  pair_seed : int;
  sched_seed : int;
  best : Mutate.genome option;
      (** the incumbent, {e reparsed} from its own serialized form so
          the saved witness is the exact genome that scored
          [best_ratio] *)
  best_ratio : float;  (** [neg_infinity] when [best = None] *)
  baseline_ratio : float option;
      (** best ratio over the [baseline] random instances, when asked *)
  evaluated : int;
  accepted : int;
  rejected : int;  (** candidates that failed validity or scoring *)
  round_trip_failures : int;
      (** improvements discarded because serialize-then-replay did not
          reproduce the ratio bit-for-bit *)
  best_trace : float list;
      (** best-so-far ratio after each accepted step, oldest first —
          monotone non-decreasing by construction, pinned by QCheck *)
}

val search :
  ?iters:int ->
  ?temp:float ->
  ?metric:metric ->
  ?baseline:int ->
  seed:int ->
  Ftsched_core.Schedulers.t ->
  Ftsched_core.Schedulers.t ->
  pair_report
(** [search ~seed a b] anneals for [iters] (default 200) proposals with
    geometric cooling from [temp] (default 0.25) down to 2% of it.
    Every improvement passes a save-then-replay check before becoming
    the incumbent.  [baseline > 0] additionally scores that many plain
    random instances from an independent RNG stream — the yardstick the
    acceptance criterion compares against.  Pure function of
    ([seed], parameters, policy pair). *)

type report = {
  metric : metric;
  iters : int;
  temp : float;
  seed : int;
  pair_reports : pair_report list;
}

val ordered_pairs :
  Ftsched_core.Schedulers.t list ->
  (Ftsched_core.Schedulers.t * Ftsched_core.Schedulers.t) list
(** All ordered pairs (A, B), A ≠ B, in registry order. *)

val campaign :
  ?jobs:int ->
  ?policies:Ftsched_core.Schedulers.t list ->
  ?pairs:int ->
  ?iters:int ->
  ?temp:float ->
  ?metric:metric ->
  ?baseline:int ->
  seed:int ->
  unit ->
  report
(** Anneal every ordered pair (or the first [pairs] of them) in
    parallel.  Bit-identical for any [jobs]. *)

val report_digest : report -> string
(** Hex digest over every per-pair headline number ([%h] floats):
    the CI determinism check compares this across [-j]. *)

val matrix_table : report -> Ftsched_util.Table.t
(** Pairwise-dominance matrix: cell (A, B) is the best ratio
    [M_A / M_B] found, ["inf"] for a defeat of A, ["-"] when the pair
    was not searched or never scored, ["."] on the diagonal. *)

val save_witnesses :
  dir:string -> report -> (pair_report * string) list
(** Write every pair's incumbent under [dir] (created on demand) as a
    {!Ftsched_fuzz.Fuzz.Tournament} witness named
    [<A>-vs-<B>-seed<N>.case]; returns the (report, path) pairs actually
    written. *)

val replay : string -> (float, string) result
(** Re-score a saved witness under its stored metric and policies:
    [Ok ratio] iff the replayed ratio equals the stored one
    {e bit-for-bit} ([Float.compare] = 0); [Error] for any other
    witness kind. *)

val replay_command : path:string -> string

val pp_pair_report : Format.formatter -> pair_report -> unit

(** Optional per-step decision trace of the kernel driver.

    When a [t] is threaded through {!Driver.run} (or any scheduler
    facade's [?trace] argument), the driver records one {!step} per
    scheduling decision — the popped task, every equation-(1) candidate
    evaluation, the committed replicas and any selected communication
    edges — plus per-phase wall-clock counters.  The sink is passive: it
    never changes the schedule, only observes it.

    Consumed by [ftsched schedule --trace out.jsonl] (one JSON object per
    step) and [--stats] (aggregated {!Ftsched_schedule.Metrics.step_stats}),
    and by the differential-testing harness in [test/test_kernel.ml]. *)

type eval = {
  proc : int;
  finish_opt : float;  (** equation-(1) finish estimate *)
  finish_pess : float;  (** equation-(3) finish estimate *)
}

type replica = { proc : int; start : float; finish : float }

type step = {
  step : int;  (** 0-based decision index *)
  task : int;
  priority : float;  (** priority/urgency key at pop time; [nan] if none *)
  evals : eval array;  (** candidate evaluations, in evaluation order *)
  chosen : replica array;  (** committed replicas, in replica order *)
  edges : (int * (int * int) list) list;
      (** per incoming DAG edge: selected (src_replica, dst_replica)
          pairs — non-empty only for selected-communication policies *)
}

type t

val create : unit -> t

val steps : t -> step list
(** Recorded steps, in scheduling order. *)

val stats : t -> Ftsched_schedule.Metrics.step_stats
(** Aggregate counters of the traced run.  [candidate_evals] counts the
    equation-(1) evaluations the run performed: one per processor per
    evaluated task, including the tasks an [Urgency] policy evaluates
    without placing them (see {!Driver.count_evals}).  A traced run
    evaluates every processor, so these counts are the full
    evaluation's; an untraced FTSA or MC-FTSA run evaluates exactly only
    the processors that can still make the [ε+1] best
    ({!Driver.eval_pruned}). *)

val reductions : t -> int
(** Predecessor replica rows the traced run reduced: one per predecessor
    of each task whose equation-(1)/(3) input bounds
    ({!Driver.prepare_inputs}) or dynamic top level ({!Driver.top_level})
    were computed (a policy with a prepare rule of its own, CA-FTSA,
    books only its top levels).  With {!stats}' [candidate_evals], the
    work count behind the Table 1 scaling claim. *)

val save_jsonl : t -> algorithm:string -> path:string -> unit
(** One JSON object per step, in scheduling order, followed by a final
    summary object with the aggregate counters under the label
    [algorithm] (the CLI writes the scheduler catalogue's name). *)

(** {2 Driver-side interface}

    Called by {!Driver}; user code only reads traces. *)

val start : t -> unit
val record : t -> step -> unit
val add_evals : t -> int -> unit
val add_reductions : t -> int -> unit
val add_phase : t -> [ `Evaluate | `Choose | `Commit ] -> float -> unit
val finish : t -> gap:Proc_state.gap_stats -> unit

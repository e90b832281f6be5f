(** Semantic validation of fault-tolerant schedules.

    These checks encode the paper's propositions about a plan as
    executable predicates: Prop. 4.1 (replicas on distinct processors),
    the feasibility of every start time under the communication plan,
    processor exclusivity, and the one-to-one + forced-internal-edge
    structure of MC selections.  The test suite runs them on every
    schedule the algorithms produce.  Survival under failures (Theorem
    4.1 / Prop. 4.3) is a question about executions, answered by
    [Ftsched_sim.Crash_exec.survives] and, over every ε-subset, by
    [Ftsched_sim.Worst_case.first_defeat]. *)

type error = {
  check : string;  (** name of the failed check *)
  detail : string;
}

val distinct_replica_procs : Schedule.t -> error list
(** Prop. 4.1: the [ε+1] replicas of each task occupy distinct
    processors. *)

val no_processor_overlap : Schedule.t -> error list
(** On every processor, optimistic execution intervals are disjoint.
    The scan compares adjacent replicas of {!Schedule.timeline}, which
    {!Schedule.create} sorts by start. *)

val data_feasible : Schedule.t -> error list
(** Every replica starts no earlier than the arrival of its inputs:
    optimistic start ≥ max over predecessors of the {e earliest} sender
    arrival (eq. 1), pessimistic start ≥ max over predecessors of the
    {e latest} sender arrival (eq. 3), both restricted to the plan's
    senders, read per (edge, replica) in row order.  Also checks that
    each replica has at least one sender per predecessor edge and that
    durations equal [E(task, proc)].  A plan pair whose source replica
    index exceeds [ε] is a ["replica-range"] error (destination indices
    out of range are {!robust_selection}'s [one-to-one] errors): the
    check reports malformed plans, it never raises on them. *)

val robust_selection : Schedule.t -> error list
(** For selected plans: each edge's row is one-to-one on replica
    indices (a redundant row, with more than [ε+1] pairs, must instead
    stay in range, repeat no pair, use every source and feed every
    destination), and respects the forced internal edge rule — a source
    replica colocated with one of the destination's processors must send
    (only, in a one-to-one row) to that colocated destination replica.
    One pass over each row with [(ε+1)²] ints of scratch; the frozen
    list-based check ([Validate_ref] under [test/oracle]) returns the
    same errors in the same order.  Empty for the all-to-all plan. *)

val check : Schedule.t -> (unit, error list) result
(** All of the above. *)

val pp_error : Format.formatter -> error -> unit

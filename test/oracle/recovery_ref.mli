(** The list-and-Hashtbl reference recovery controller.

    A frozen copy of the pre-flat {!Ftsched_recovery.Recovery}
    implementation: full topological sweeps at every detection instant,
    per-task [int list] viability, polymorphic [(task, rep)] Hashtbls for
    estimated finishes and injected wiring, and the eq. (1) placement
    re-pricing every source for every candidate processor.  It exists
    purely as a differential baseline — {!Ftsched_recovery.Recovery.run}
    must return a structurally equal [outcome] on every run; the recovery
    tests, the fuzzer's executor-agreement oracle and the scale oracle
    check the two against each other.  Behavioural changes belong in
    {!Ftsched_recovery.Recovery}; this module only tracks interface
    renames.

    The outcome type is shared with {!Ftsched_recovery.Recovery}, so
    outcomes compare with structural equality. *)

type outcome = Ftsched_recovery.Recovery.outcome = {
  result : Event_sim.result;
  degraded : Ftsched_schedule.Metrics.degraded;
  injections : int;
  kills : int;
  detected_failures : int;
}

val run :
  ?network:Event_sim.network_model ->
  ?faults:Scenario.comm_faults ->
  ?release:float array ->
  ?delta:float ->
  ?rounds:int ->
  Ftsched_schedule.Schedule.t ->
  fail_times:float array ->
  outcome
(** Reference counterpart of {!Ftsched_recovery.Recovery.run}: identical
    semantics, identical validation, identical outcomes. *)

val run_timed :
  ?network:Event_sim.network_model ->
  ?faults:Scenario.comm_faults ->
  ?release:float array ->
  ?delta:float ->
  ?rounds:int ->
  Ftsched_schedule.Schedule.t ->
  Scenario.timed list ->
  outcome
(** Reference counterpart of {!Ftsched_recovery.Recovery.run_timed}. *)

(** The pairing-heap reference engine.

    A frozen copy of the pre-flat-array {!Event_sim} implementation:
    pairing-heap event queue, polymorphic-hashed [(task, replica)]
    Hashtbls, per-processor [list ref] queues.  It exists purely as a
    differential baseline — the flat-array engine in {!Event_sim} must
    produce bit-for-bit identical results on every run, and the test
    suite (including a v = 800 schedule) and the fuzzer's
    executor-agreement oracle check the two against each other.  Behavioural changes belong in
    {!Event_sim}; this module only tracks interface renames.

    All types are shared with {!Event_sim}, so results compare with
    structural equality. *)

val run :
  ?network:Event_sim.network_model ->
  ?faults:Scenario.comm_faults ->
  ?release:float array ->
  Ftsched_schedule.Schedule.t ->
  fail_times:float array ->
  Event_sim.result
(** Reference counterpart of {!Event_sim.run}: identical semantics,
    identical validation, identical results. *)

val run_timed :
  ?network:Event_sim.network_model ->
  ?faults:Scenario.comm_faults ->
  ?release:float array ->
  Ftsched_schedule.Schedule.t ->
  Scenario.timed list ->
  Event_sim.result
(** Reference counterpart of {!Event_sim.run_timed}. *)

val run_crash :
  ?network:Event_sim.network_model ->
  ?faults:Scenario.comm_faults ->
  Ftsched_schedule.Schedule.t ->
  Scenario.t ->
  Event_sim.result
(** Reference counterpart of {!Event_sim.run_crash}. *)

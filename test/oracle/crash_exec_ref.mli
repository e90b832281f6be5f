(** The list-and-Hashtbl reference crash replay.

    A frozen copy of the pre-flat-array {!Crash_exec} implementation:
    effective senders in a polymorphic [(edge, replica)] Hashtbl,
    per-processor chains from [Schedule.timeline] as lists, list-valued
    dependency arrays and a tuple [Queue] for Kahn's sweep.  It exists
    purely as a differential baseline — {!Crash_exec.run} must return a
    structurally equal [t] (latencies and replica times bit for bit) on
    every run, under both policies; [test_sim], the fuzzer's
    executor-agreement oracle and the scale oracle check the two against
    each other.  Behavioural changes belong in {!Crash_exec}; this module
    only tracks interface renames.

    All types are shared with {!Crash_exec}, so results compare with
    structural equality. *)

val survives :
  ?policy:Crash_exec.policy ->
  Ftsched_schedule.Schedule.t ->
  Scenario.t ->
  bool
(** Reference counterpart of {!Crash_exec.survives}. *)

val run :
  ?policy:Crash_exec.policy ->
  Ftsched_schedule.Schedule.t ->
  Scenario.t ->
  Crash_exec.t
(** Reference counterpart of {!Crash_exec.run}: identical semantics,
    identical validation, identical results. *)

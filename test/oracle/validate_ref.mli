(** The list-based data-feasibility check, frozen as the oracle of
    {!Ftsched_schedule.Validate.data_feasible}. *)

val data_feasible :
  Ftsched_schedule.Schedule.t -> Ftsched_schedule.Validate.error list
(** Same contract, and the same errors in the same order, as
    {!Ftsched_schedule.Validate.data_feasible}. *)

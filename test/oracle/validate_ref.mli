(** The list-based data-feasibility and robust-selection checks, frozen
    as the oracles of {!Ftsched_schedule.Validate.data_feasible} and
    {!Ftsched_schedule.Validate.robust_selection}. *)

val data_feasible :
  Ftsched_schedule.Schedule.t -> Ftsched_schedule.Validate.error list
(** Same contract, and the same errors in the same order, as
    {!Ftsched_schedule.Validate.data_feasible}. *)

val robust_selection :
  Ftsched_schedule.Schedule.t -> Ftsched_schedule.Validate.error list
(** Same contract, and the same errors in the same order, as
    {!Ftsched_schedule.Validate.robust_selection}. *)

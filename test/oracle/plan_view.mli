(** The list views of a communication plan that the frozen oracles were
    written against, rebuilt from {!Ftsched_schedule.Comm_plan}'s cold
    list view. *)

val pairs_for :
  Ftsched_schedule.Comm_plan.t ->
  eps:int ->
  int ->
  Ftsched_schedule.Comm_plan.pair list
(** Edge [e]'s pairs in row order (all-to-all: the cross product,
    source-major). *)

val senders_to :
  Ftsched_schedule.Comm_plan.t -> eps:int -> int -> dst_replica:int -> int list
(** Source replicas of the pairs of edge [e] feeding [dst_replica], in
    row order. *)

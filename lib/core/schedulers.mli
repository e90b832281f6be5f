(** The scheduler catalogue: every policy of the repository under one
    name and one calling convention.  The CLI ([--algo]), the serving
    daemon ([schedule] requests), the differential fuzzer and the
    instance-space tournament all pick their schedulers here.

    Entries fix what their policy needs beyond the instance and [ε]:
    [mc-redundant] keeps two senders per input, [r-ftsa] plans against
    failure rates [0.0005·(p+1)], [ftsa-domains] against [min m (ε+2)]
    failure domains ([p mod d]), and the fault-free baselines ignore
    [eps] and [seed].  A policy rejecting [eps] for the instance (e.g.
    [eps ≥ m]) raises [Invalid_argument]. *)

type t = {
  name : string;
  run :
    ?trace:Ftsched_kernel.Trace.t ->
    seed:int ->
    Ftsched_model.Instance.t ->
    eps:int ->
    Ftsched_schedule.Schedule.t;
}

val all : t list
(** ftsa, mc-ftsa, mc-bottleneck, mc-redundant, ca-ftsa, r-ftsa,
    ftsa-domains, ftbar, heft, peft, cpop — this order fixes the
    tournament's pairs and per-pair seeds. *)

val find : string -> t option
val names : string list

(** Domain-aware FTSA — active replication against {e correlated}
    failures.

    The paper's fault model fails processors independently, and
    Proposition 4.1 accordingly requires the ε+1 replicas of a task to
    sit on distinct {e processors}.  Real platforms fail in groups: a
    rack, a power domain or a switch takes all of its processors down at
    once.  Spreading replicas over ε+1 processors of the same rack then
    tolerates zero rack failures.

    This variant keeps the FTSA loop but constrains the processor
    selection: the ε+1 replicas of every task must live in pairwise
    distinct {e failure domains} (a partition of the processors supplied
    by the caller).  Proposition 4.1 generalizes verbatim: the schedule
    survives any ε {e domain} failures — and a fortiori any ε processor
    failures.  The price is a coarser choice at each step: the scheduler
    keeps, per domain, only the processor with the earliest
    equation-(1) finish, and takes the best ε+1 domains. *)

val schedule :
  ?seed:int ->
  ?trace:Ftsched_kernel.Trace.t ->
  domains:int array ->
  Ftsched_model.Instance.t ->
  eps:int ->
  Ftsched_schedule.Schedule.t
(** [schedule ~domains inst ~eps] where [domains.(p)] is processor [p]'s
    failure-domain id.  Requires at least [eps + 1] distinct domains.
    With [domains = [|0; 1; …; m-1|]] (one processor per domain) this is
    exactly FTSA.  Raises [Invalid_argument] on malformed parameters. *)

val procs_of_domain : domains:int array -> int -> int list
(** All processors of one domain — convenience for building the
    corresponding failure scenarios. *)

val distinct_replica_domains :
  Ftsched_schedule.Schedule.t -> domains:int array -> bool
(** The generalized Prop.-4.1 structure: every task's replicas occupy
    pairwise distinct domains. *)

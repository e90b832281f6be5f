(** Contention-aware FTSA — scheduling {e with} the realistic
    communication models of the paper's §7 future work.

    Plain FTSA prices every message at [V·d(Pk,Ph)] regardless of how
    many transfers the sender already has in flight.  Under the one-port
    or bounded multi-port models that price is wrong, and the mapping
    suffers accordingly (see the `contention` ablation).  This variant
    keeps FTSA's structure — criticalness priority, equation-(1) style
    selection of the ε+1 earliest-finishing processors, active
    replication, all-to-all replica communication — but prices and
    {e books} every inter-processor message on its sender's outgoing
    ports: a message departs when the sender has produced the data {e
    and} one of its [ports] ports is free, and occupies that port for the
    whole transfer.

    The resulting schedule is exactly as fault-tolerant as FTSA's
    (Theorem 4.1 applies verbatim: the replica/processor structure is
    unchanged), but its planned times anticipate contention, which the
    one-port replay rewards. *)

val schedule :
  ?seed:int ->
  ?ports:int ->
  ?trace:Ftsched_kernel.Trace.t ->
  Ftsched_model.Instance.t ->
  eps:int ->
  Ftsched_schedule.Schedule.t
(** [schedule inst ~eps] with [ports] outgoing ports per processor
    (default 1 — the one-port model).  With [ports] at least the total
    message count the behaviour degenerates to plain FTSA.  Raises
    [Invalid_argument] unless [0 ≤ eps < m] and [ports ≥ 1]. *)

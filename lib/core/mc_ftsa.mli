(** MC-FTSA — FTSA with Minimum Communications (§4.2).

    Identical processor selection to FTSA, but for every DAG edge only
    [ε+1] of the up-to-[(ε+1)²] inter-replica messages are retained: a
    one-to-one set between the source and destination replicas that still
    survives any [ε] failures (Prop. 4.3), thanks to the forced
    intra-processor edges.  The total message count drops from
    [e(ε+1)²] to [e(ε+1)]. *)

type strategy =
  | Greedy  (** internal edges first, then non-decreasing weight order *)
  | Bottleneck
      (** minimize the largest selected completion time by binary search
          over the threshold + maximum bipartite matching *)
  | Redundant of int
      (** extension beyond the paper: keep that many senders per
          destination replica instead of one — [Redundant 1] is [Greedy],
          [Redundant (ε+1)] restores FTSA's message fan-in.  Intermediate
          values trade messages ([e·(ε+1)·k] total) against the
          end-to-end robustness gap documented in DESIGN.md. *)

val schedule :
  ?seed:int ->
  ?strategy:strategy ->
  ?trace:Ftsched_kernel.Trace.t ->
  Ftsched_model.Instance.t ->
  eps:int ->
  Ftsched_schedule.Schedule.t
(** [schedule inst ~eps] runs MC-FTSA; [strategy] defaults to [Greedy],
    the variant evaluated in the paper's experiments.  [?trace] records
    every scheduling decision. *)

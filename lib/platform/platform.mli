(** Heterogeneous, fully connected platform model.

    A platform is a set [P = {P1 … Pm}] of processors plus the link delay
    function [d(Pk, Ph)] — the time to ship one unit of data from [Pk] to
    [Ph], with [d(Pk, Pk) = 0] (intra-processor communication is free,
    §2 of the paper).  Computation costs are not stored here: they are per
    (task, processor) and live in [Ftsched_model.Instance]. *)

type proc = int

type t

val create : delay:float array array -> t
(** [create ~delay] builds a platform from an [m × m] delay matrix.
    Raises [Invalid_argument] unless the matrix is square with zero
    diagonal and non-negative finite entries. *)

val n_procs : t -> int

val delay : t -> proc -> proc -> float
(** Unit-data delay [d(Pk, Ph)]; 0 when [k = h]. *)

val delay_row : t -> proc -> float array
(** [delay_row t k] is the row [d(Pk, ·)], physically shared with the
    platform — {b treat it as read-only}.  Exposed so the scheduling hot
    path can hoist the row lookup out of its per-target-processor inner
    loop. *)

val avg_delay : t -> float
(** Mean of [d] over the [m(m-1)] ordered pairs of distinct processors —
    the paper's average unit delay [d̄] used by average communication
    costs [W̄]. *)

val max_delay_from : t -> proc -> float
(** [max_delay_from p] is [max_j d(p, Pj)] — the worst-case factor in the
    dynamic top level of §4.1. *)

val max_delays_from : t -> float array
(** {!max_delay_from} of every processor, indexed by processor and
    physically shared with the platform — {b treat it as read-only}.
    Exposed so the dynamic top level reads it without boxing a float per
    replica. *)

val max_delay : t -> float
(** Largest off-diagonal entry. *)

val procs : t -> proc array
(** [| 0; …; m-1 |]. *)

val pp : Format.formatter -> t -> unit

(** {1 Generators} *)

val homogeneous : m:int -> unit_delay:float -> t
(** All distinct-processor delays equal to [unit_delay]. *)

val random :
  Ftsched_util.Rng.t ->
  m:int ->
  delay_lo:float ->
  delay_hi:float ->
  ?symmetric:bool ->
  unit ->
  t
(** Delays drawn uniformly from [delay_lo, delay_hi) — the paper draws
    from [0.5, 1].  [symmetric] (default true) mirrors the matrix so that
    [d(k,h) = d(h,k)]. *)

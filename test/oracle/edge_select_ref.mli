(** The list-based reference edge selection.

    A frozen copy of {!Ftsched_kernel.Edge_select} as it was before the
    flat candidate sets: candidates as an [edge list], the greedy rule
    through [List.filter] and [List.sort], the bottleneck rule over
    [List.sort_uniq]'d weights, the redundant extension through a
    [(left, right)] Hashtbl.  It exists purely as a differential
    baseline — the flat selectors must return the same pairs in the same
    order, the same [bottleneck_value] and [max_weight], and raise
    [Infeasible] with the same message on the same candidate sets.
    [test_core] and the fuzzer's selection oracle check the two against
    each other.  Behavioural changes belong in
    {!Ftsched_kernel.Edge_select}.

    For one DAG edge [(t', t)], the replicas of [t'] form the left side of
    a bipartite graph and the replicas of [t] the right side.  A left
    replica colocated with one of [t]'s processors has a single {e forced}
    edge to that colocated right replica; every other left replica has an
    edge to all right replicas.  Each edge is weighted with the completion
    time [t] would reach through it alone. *)

type edge = {
  left : int;  (** source replica index, 0 … ε *)
  right : int;  (** destination replica index, 0 … ε *)
  weight : float;
  forced : bool;
      (** [true] iff this is the unique admissible edge of its left node
          (the intra-processor case). *)
}

exception Infeasible of string
(** Raised when no one-to-one selection exists. *)

val greedy : eps:int -> edge list -> (int * int) list
(** The paper's greedy rule: retain every forced edge first, then scan
    the remaining edges in non-decreasing weight order, keeping an edge
    whenever it saturates a new left and a new right node.  Returns the
    [(left, right)] pairs.  O(E log E). *)

val bottleneck : eps:int -> edge list -> (int * int) list
(** Optimal bottleneck selection: the one-to-one set minimizing the
    largest selected weight, via binary search on the sorted distinct
    weights with a Hopcroft–Karp feasibility test per probe (the
    polynomial algorithm sketched in §4.2). *)

val bottleneck_value : eps:int -> edge list -> float
(** The minimal achievable largest weight (the optimum certified by
    {!bottleneck}). *)

val max_weight : edge list -> (int * int) list -> float
(** Largest weight among the chosen pairs — for comparing selectors.
    O(|edges| + |pairs|) via a [(left, right)] index.  Raises
    {!Infeasible} when a pair has no backing edge. *)

val redundant : eps:int -> senders:int -> edge list -> (int * int) list
(** Extension beyond the paper: a greedy one-to-one selection augmented
    so that every destination replica receives from [senders] distinct
    source replicas (clamped to [1 … ε+1]).  [senders = 1] is the paper's
    MC-FTSA; [senders = ε+1] restores FTSA's full fan-in.  Extra senders
    are the cheapest non-forced candidates, so colocated sources still
    feed only their own processor (the forced-internal rule is
    preserved).  Message count: at most [(ε+1)·senders] per DAG edge. *)

(** {2 Bridging to the flat sets} *)

val load : Ftsched_kernel.Edge_select.t -> eps:int -> edge list -> unit
(** [load flat ~eps edges] resets [flat] to [k = eps+1] and adds [edges]
    in list order, weights included — the flat set the selectors above
    race against.  [edges] must not repeat a [(left, right)] pair. *)

val selection : Ftsched_kernel.Edge_select.t -> (int * int) list
(** The flat set's last selection, in its order. *)

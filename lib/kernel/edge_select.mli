(** Robust communication-edge selection for MC-FTSA (§4.2).

    For one DAG edge [(t', t)], the replicas of [t'] form the left side of
    a bipartite graph and the replicas of [t] the right side.  A left
    replica colocated with one of [t]'s processors has a single {e forced}
    edge to that colocated right replica (this is what makes the selection
    survive ε failures — see the proof of Prop. 4.3); every other left
    replica has an edge to all right replicas.  Each edge is weighted with
    the completion time [t] would reach through it alone.

    A {e robust selection} is a set of [ε+1] edges saturating every left
    and every right node exactly once.  The paper offers two selectors and
    so do we: the greedy rule, and the optimal bottleneck rule (binary
    search over the threshold [T] + maximum bipartite matching).

    The candidate graph lives in a reusable flat set {!t}: a [k × k]
    weight matrix ([k = ε+1]) with a mask of the cells that are
    candidates, and the candidates' [(left, right, forced)] in the order
    they were added, which is the order ties fall back on.  The MC-FTSA
    commit rule fills a set with one {!build} call per DAG edge, from the
    predecessor columns its {!Driver.workspace} gathered; {!add} loads an
    arbitrary set one candidate at a time.  The greedy rule reads the
    matrix, scanning it rows then columns ascending; the bottleneck rule
    and the redundant rule's extra senders read the candidate order.  The
    selectors write the selection into the set; none allocates per
    candidate.  A set serves one caller at a time — the MC-FTSA commit
    rule uses the one its {!Driver.workspace} owns. *)

type t
(** A candidate set with its selector scratch and its last selection. *)

exception Infeasible of string
(** Raised when no one-to-one selection exists (cannot happen for graphs
    built by the MC-FTSA construction; the selector still defends). *)

val create : unit -> t
(** An empty set; it grows to the largest [k] it is reset to. *)

val reset : t -> k:int -> unit
(** Start a new candidate graph with [k ≥ 1] replicas per side, empty of
    candidates and selection. *)

val weights : t -> float array
(** The [k × k] weight array, row-major by left replica: the weight of
    the candidate [(left, right)] is read at [left * k + right].  Write
    it before or after {!add}, before selecting; the array is the set's
    own, valid until the next {!reset}. *)

val add : t -> left:int -> right:int -> forced:bool -> unit
(** Append the candidate [(left, right)], each in [0 … k−1]; [forced]
    iff it is the unique admissible edge of its left node (the
    intra-processor case).  A pair is added at most once. *)

val build :
  t ->
  k:int ->
  finish:float array ->
  procs:int array ->
  first:int ->
  vols:float array ->
  vol_at:int ->
  delay_t:float array array ->
  chosen:int array ->
  replica_on:int array ->
  ready:float array ->
  exec:float array ->
  fan_out:bool ->
  unit
(** One DAG edge's §4.2 candidate graph, in one call: the set {!reset}
    to [k ≥ 1] and loaded with {!add}, weights included, in one pass
    that writes each cell of the mask once.  Left replica [l] finishes at
    [finish.(first + l)] on processor [procs.(first + l)]; right replica
    [r] runs on [chosen.(r)]; [replica_on.(p)] is the right replica on
    processor [p], or [-1]; the edge's volume is [vols.(vol_at)] (an
    index, so no float is boxed); [delay_t.(p).(q)] is the delay from
    [q] to [p]; [ready] and [exec] are the target task's processor ready
    times and costs.  The weight of [(l, r)] is
    [Float.max (F + V × d(procs l, chosen r)) (ready (chosen r)) +
    exec (chosen r)].  A left replica colocated with right [c] has the
    single forced candidate [(l, c)], and also every other right as a
    free candidate when [fan_out]; any other left replica has every
    right.  Candidates come in the order ties fall back on: left
    replicas from last to first, each one's free candidates from the
    last right to the first, then its forced one. *)

val greedy : t -> unit
(** The paper's greedy rule: retain every forced candidate first, in the
    order added, then the remaining candidates in increasing
    [(weight, left, right)] order, keeping a candidate whenever it
    saturates a new left and a new right node.  Each keep is one scan of
    the matrix cells that are candidates of a free left and a free right,
    rows then columns ascending, keeping the first strictly least weight
    under [Float.compare]; it stops once [k] pairs are kept.  The
    selection lists the pairs in the order they were kept.  Raises
    {!Infeasible} on conflicting forced candidates or when some node
    stays unsaturated.  O(k³), no sort. *)

val bottleneck : t -> unit
(** Optimal bottleneck selection: the one-to-one set minimizing the
    largest selected weight, via binary search on the sorted distinct
    weights with a Hopcroft–Karp feasibility test per probe (the
    polynomial algorithm sketched in §4.2).  The selection lists one pair
    per left replica, in left order.  Raises {!Infeasible} on an empty
    set or when no perfect matching exists. *)

val bottleneck_value : t -> float
(** The minimal achievable largest weight (the optimum certified by
    {!bottleneck}); leaves the selection alone. *)

val redundant : t -> senders:int -> unit
(** Extension beyond the paper: a {!greedy} selection augmented so that
    every destination replica receives from [senders] distinct source
    replicas (clamped to [1 … k]).  [senders = 1] is the paper's
    MC-FTSA (the greedy selection, in its order); [senders = k] restores
    FTSA's full fan-in.  Extra senders are the cheapest non-forced
    candidates, ties in the order added, so colocated sources still feed
    only their own processor (the forced-internal rule is preserved).
    With [senders > 1] the selection lists the pairs in increasing
    [(left, right)] order.  Message count: at most [k · senders]. *)

val selected : t -> int
(** Number of pairs in the last selection. *)

val selected_lefts : t -> int array
(** The selected pairs' source replicas, the [i]-th pair's at [i] in
    [0 … selected t − 1]: the set's own array, valid until the next
    selection. *)

val selected_rights : t -> int array
(** The selected pairs' destination replicas, as {!selected_lefts}. *)

val max_weight : t -> float
(** Largest weight among the selected pairs ([neg_infinity] for an
    empty selection) — for comparing selectors. *)

(** Communication plans: which replica talks to which.

    With every task replicated [ε+1] times, a DAG edge [(t', t)] expands
    into inter-replica messages.  FTSA ships all-to-all — up to [(ε+1)²]
    messages per edge — while MC-FTSA selects exactly [ε+1] of them, one
    per source replica and one per destination replica (§4.2).  The plan
    records that choice; the simulator and the validators interpret it.

    {b Storage.}  This module is the only one that knows the format.  A
    selected plan is one flat table: edge [e] owns a range of a single
    int buffer, one int per pair (source and destination replica packed
    together), the ranges laid out in edge-id order.  Each row keeps its
    pairs in the order the selector or the file produced them: a
    redundant row can feed two destinations from one source, and the
    codec and the simulator's emission order observe that order.  The
    all-to-all plan stores nothing: its pairs follow from [ε] alone, so
    the walks below answer it by arithmetic, whatever the DAG.

    {b Walks.}  Readers walk a plan without closures and without
    allocating: a walk copies one edge's pairs, or the senders of one
    (edge, destination replica), into int arrays the caller owns and
    reuses, and returns how many it wrote; the caller then loops over
    them.  {!pairs} gives an edge's pairs in row order (all-to-all:
    source-major, each source's destinations in index order);
    {!senders} gives the sources feeding one destination replica, in row
    order — under all-to-all the replicas [0 … ε] in index order, in
    [ε+1] steps, without looking at the other pairs; {!receivers}, its
    mirror, gives the destinations one source replica feeds over a whole
    successor row; {!sender_counts} counts the senders of every replica's
    inputs over a whole predecessor row.  Arrays of {!widest} entries hold any one-edge walk's
    output. *)

type t
(** A plan: all-to-all, or one selected row per DAG edge. *)

val all_to_all : t
(** Every replica of the predecessor sends to every replica of the
    successor (modulo the intra-processor shortcut). *)

val is_all_to_all : t -> bool

val fits : t -> n_edges:int -> bool
(** [true] iff the plan can serve a DAG with [n_edges] edges: always
    for all-to-all, iff it has exactly one row per edge otherwise. *)

(** {1 Walks} *)

val widest : t -> eps:int -> int
(** The longest row: [(ε+1)²] under all-to-all.  Walk buffers of this
    length never overflow. *)

val pairs : t -> eps:int -> int -> srcs:int array -> dsts:int array -> int
(** [pairs t ~eps e ~srcs ~dsts] writes edge [e]'s pairs, in row order,
    as [srcs.(i)] → [dsts.(i)] for [i] below the returned count. *)

val senders : t -> eps:int -> int -> dst:int -> int array -> int
(** [senders t ~eps e ~dst into] writes the source replicas of edge
    [e]'s pairs feeding destination replica [dst], in row order, into
    [into] from index 0, and returns their count. *)

val receivers :
  t ->
  eps:int ->
  int array ->
  lo:int ->
  hi:int ->
  src:int ->
  idx:int array ->
  dsts:int array ->
  at:int ->
  int
(** The mirror of {!senders} over a run of edges, typically a task's
    successor row.  [receivers t ~eps edges ~lo ~hi ~src ~idx ~dsts ~at]
    visits the edges [edges.(lo) … edges.(hi − 1)] in that order and,
    for each, the destination replicas its pairs with source replica
    [src] feed, in row order (all-to-all: [0 … ε] by arithmetic).  The
    [n]-th is written at index [at + n]: its edge's index [j] into
    [edges] in [idx], its destination replica in [dsts].  Returns [at]
    plus the count written; [idx] and [dsts] need room for
    [(hi − lo) × widest] entries past [at]. *)

val sender_counts :
  t ->
  eps:int ->
  int array ->
  lo:int ->
  hi:int ->
  counts:int array ->
  at:int ->
  unit
(** The mirror of {!receivers} over a destination task's predecessor
    row: how many senders each (replica, input) slot of the task has.
    [sender_counts t ~eps edges ~lo ~hi ~counts ~at] writes, for each
    destination replica [d] in [0 … ε] and each [j] in [lo … hi − 1],
    the number of edge [edges.(j)]'s pairs feeding [d] at index
    [at + d × (hi − lo) + (j − lo)]: one block of [(ε+1) × (hi − lo)]
    entries, replica-major, one input row per replica.  Under all-to-all
    every count is [ε+1], written by arithmetic.  Allocates nothing;
    requires every destination index of the rows in [0 … ε]. *)

val is_one_to_one : t -> eps:int -> int -> bool
(** [true] iff edge [e]'s row saturates each of the [ε+1] source
    replicas and each of the [ε+1] destination replicas exactly once —
    the structural half of Proposition 4.3. *)

(** {1 Building selected plans} *)

type builder
(** Rows being written, in any edge order, into one growable buffer; a
    builder serves one writer at a time and can be reused. *)

val builder : unit -> builder

val clear : builder -> n_edges:int -> unit
(** Start a plan for [n_edges] edges, every row empty. *)

val start_row : builder -> int -> unit
(** Make edge [e]'s row the one {!push} writes.  Each row is written at
    most once between {!clear}s.  Raises [Invalid_argument] outside
    [0 … n_edges−1] and on a row already started. *)

val push : builder -> src:int -> dst:int -> unit
(** Append the pair [(src, dst)] to the current row.  Raises
    [Invalid_argument] on a negative replica index, one of [2^30] or
    more, or when no row was started. *)

val write_row : builder -> int -> n:int -> srcs:int array -> dsts:int array -> unit
(** [write_row b e ~n ~srcs ~dsts] is {!start_row} [b e] then {!push} of
    [(srcs.(i), dsts.(i))] for [i] in [0 … n−1], in one call.  Raises
    [Invalid_argument] as those do. *)

val build : builder -> t
(** The selected plan of the rows written since {!clear}, each row in
    the order pushed; the builder keeps its buffers. *)

(** {1 Cold list views}

    Allocating conveniences for tests, traces and the frozen oracles. *)

type pair = { src_replica : int; dst_replica : int }
(** Indices into the replica arrays (0 … ε) of the edge's source task and
    destination task respectively. *)

val of_lists : pair list array -> t
(** The selected plan with [rows.(e)] as edge [e]'s row; raises
    [Invalid_argument] as {!push}. *)

val to_list : t -> eps:int -> int -> pair list
(** Edge [e]'s pairs, in row order. *)

val row_list : builder -> int -> (int * int) list
(** The [(src, dst)] pairs written to edge [e]'s row so far. *)

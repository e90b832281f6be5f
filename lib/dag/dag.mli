(** Weighted directed acyclic task graphs.

    The application model of the paper: [G = (V, E)] where nodes are tasks
    and every edge [(ti, tj)] carries the volume [V(ti,tj)] of data that
    [ti] must send to [tj].  Execution costs live on the platform side
    ([Ftsched_platform]) because they are per (task, processor).

    Tasks are dense integers [0 .. n_tasks-1]; edges are dense integers
    [0 .. n_edges-1] so that schedules and communication plans can use flat
    arrays indexed by edge id.  Values of type [t] are immutable; use
    {!Builder} to construct them. *)

type task = int
type edge = int

type t

(** {1 Construction} *)

module Builder : sig
  type dag := t
  type t

  val create : unit -> t

  val add_task : ?label:string -> t -> task
  (** Adds a task and returns its id (ids are allocated consecutively from
      0).  The optional [label] is kept for rendering only. *)

  val add_edge : t -> src:task -> dst:task -> volume:float -> unit
  (** Declares the precedence [src → dst] with data volume [volume ≥ 0];
      its edge id is the number of edges added before it.  Raises
      [Invalid_argument] on unknown endpoints, negative or non-finite
      volume, and self-loops.  A duplicate [(src, dst)] is accepted here
      and rejected by {!build}. *)

  val build : t -> dag
  (** Freezes the builder.  Raises [Invalid_argument] if an edge repeats
      an earlier edge's [(src, dst)] — the message names the first such
      edge id and its endpoints — and otherwise if the edge relation has
      a cycle.  Duplicates are found on the successor rows in one
      O(n + e) pass, without hashing. *)
end

(** {1 Accessors} *)

val n_tasks : t -> int
val n_edges : t -> int

val label : t -> task -> string
(** The task's label; defaults to ["t<i>"]. *)

val out_degree : t -> task -> int
val in_degree : t -> task -> int

val iter_preds : t -> task -> (edge -> task -> float -> unit) -> unit
(** [iter_preds g t f] calls [f e src volume] for every incoming edge
    [e = (src, t)] of [t], in row order.  For cold callers; hot loops read
    {!Csr} directly. *)

val iter_succs : t -> task -> (edge -> task -> float -> unit) -> unit
(** [iter_succs g t f] calls [f e dst volume] for every outgoing edge
    [e = (t, dst)] of [t], in row order. *)

val entries : t -> task array
(** Tasks without predecessors, increasing.  Read-only (see {!Csr}). *)

val exits : t -> task array
(** Tasks without successors, increasing.  Read-only. *)

val edge_endpoints : t -> edge -> task * task
val edge_volume : t -> edge -> float

val iter_edges : t -> (edge -> src:task -> dst:task -> volume:float -> unit) -> unit
(** Every edge, by increasing edge id. *)

val fold_edges : t -> init:'a -> f:('a -> edge -> src:task -> dst:task -> volume:float -> 'a) -> 'a

val total_volume : t -> float
(** Sum of all edge volumes. *)

val topological_order : t -> task array
(** A fixed topological order computed at build time (Kahn's algorithm with
    a FIFO tie-break, hence deterministic).  The array is the graph's own:
    read-only. *)

(** {1 Adjacency rows (CSR)}

    The graph's only adjacency: compressed-sparse-row arrays built once at
    {!Builder.build} time.  Row [t] of the incoming adjacency is the index
    range [pred_offsets.(t) .. pred_offsets.(t+1) - 1] into the aligned
    [pred_edges] (edge id), [pred_tasks] (source task) and [pred_volumes]
    (edge volume) arrays; symmetrically outgoing.

    {b Row order.}  Every row lists its edges by increasing edge id, which
    is the order {!Builder.add_edge} was called in.  {!iter_preds} and
    {!iter_succs} walk the same rows in the same order, so every reduction
    over a task's neighbours visits them in one fixed order.

    {b Read-only.}  The row arrays, {!entries}, {!exits} and
    {!topological_order} are physically shared with the graph; mutating
    them corrupts it. *)
module Csr : sig
  val pred_offsets : t -> int array
  (** [n_tasks + 1] row offsets into the incoming-edge arrays. *)

  val pred_edges : t -> int array
  (** Edge id of each incoming edge, rows concatenated. *)

  val pred_tasks : t -> int array
  (** Source task of each incoming edge (pre-flattened
      [edge_endpoints]). *)

  val pred_volumes : t -> float array
  (** Volume of each incoming edge. *)

  val succ_offsets : t -> int array
  val succ_edges : t -> int array

  val succ_tasks : t -> int array
  (** Destination task of each outgoing edge. *)
end

val pp : Format.formatter -> t -> unit
(** Compact human-readable summary (sizes, entries, exits). *)

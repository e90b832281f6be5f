(** A list view of a DAG's adjacency, rebuilt from {!Ftsched_dag.Dag.iter_edges}
    alone and so independent of the library's CSR rows.  The reference
    oracles walk these lists; the adjacency tests check the library's
    rows, iterators, entries and exits against them. *)

type t = {
  dag : Ftsched_dag.Dag.t;
  in_edges : Ftsched_dag.Dag.edge list array;
      (** per task, its incoming edge ids by increasing id *)
  out_edges : Ftsched_dag.Dag.edge list array;
      (** per task, its outgoing edge ids by increasing id *)
  entries : Ftsched_dag.Dag.task list;  (** in-degree zero, increasing *)
  exits : Ftsched_dag.Dag.task list;  (** out-degree zero, increasing *)
}

val of_dag : Ftsched_dag.Dag.t -> t

val preds : t -> Ftsched_dag.Dag.task -> (Ftsched_dag.Dag.task * float) list
(** Source task and volume of each incoming edge, in [in_edges] order. *)

val succs : t -> Ftsched_dag.Dag.task -> (Ftsched_dag.Dag.task * float) list
(** Destination task and volume of each outgoing edge, in [out_edges]
    order. *)

val collect :
  (Ftsched_dag.Dag.t ->
  Ftsched_dag.Dag.task ->
  (Ftsched_dag.Dag.edge -> Ftsched_dag.Dag.task -> float -> unit) ->
  unit) ->
  Ftsched_dag.Dag.t ->
  Ftsched_dag.Dag.task ->
  (Ftsched_dag.Dag.edge * Ftsched_dag.Dag.task * float) list
(** [collect Dag.iter_preds g t] (or [iter_succs]): what the iterator
    visits, as [(edge, neighbour, volume)] in visiting order. *)

val check_rows : t -> (unit, string) result
(** The library's {!Ftsched_dag.Dag.Csr} rows, [iter_preds]/[iter_succs]
    and degrees against the reference, task by task: the first
    disagreement, if any. *)

val check_ends : t -> (unit, string) result
(** [Dag.entries]/[Dag.exits] against the reference's degree-zero tasks. *)

(** Pairing heaps: fast mergeable min-priority queues.

    The frozen reference simulator ({!Event_sim_ref}) pops the earliest
    pending event on every step; a pairing heap gives O(1) insert and
    amortized O(log n) delete-min with very small constants, and being
    purely functional it composes with the simulator's replayable design. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Ord : ORDERED) : sig
  type elt = Ord.t
  type t

  val empty : t
  val is_empty : t -> bool

  val cardinal : t -> int
  (** O(1): the size is cached alongside the root. *)

  val insert : elt -> t -> t
  val merge : t -> t -> t

  val find_min : t -> elt option

  val pop_min : t -> (elt * t) option
  (** Minimum element and the heap without it. *)

  val of_list : elt list -> t

  val to_sorted_list : t -> elt list
  (** Drains the heap; ascending order. *)
end

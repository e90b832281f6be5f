(** Allocation-free binary min-heap over [(key, seq, payload)] triples.

    The library's one priority structure.  The event simulator pops its
    earliest [(at, seq)] event once per simulated event, with the event
    packed into the payload word; the kernel driver pops the head H(α)
    of its priority list once per scheduled task, encoding the max
    order on [(priority, tie, task)] as the min order on
    [(-. priority, - tie rank, lnot task)].  The three fields live in
    parallel unboxed arrays (doubling growth), so pushes and pops
    allocate nothing once the arrays reach the working size.

    Triples are ordered lexicographically: [key] (never NaN), then
    [seq], then [payload].  The order is total, so the pop sequence is
    unique and matches any other faithful implementation of it bit for
    bit — what the pinned schedule and simulation digests rest on.
    Equal triples are interchangeable. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty heap; [capacity] (default 64) pre-sizes the arrays. *)

val length : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Forget all entries, keeping the arrays. *)

val push : t -> key:float -> seq:int -> payload:int -> unit
(** Insert an entry.  [key] must not be NaN. *)

val min_key : t -> float
(** Key of the least entry.  Raises [Invalid_argument] when empty. *)

val min_seq : t -> int
(** Sequence number of the least entry.  Raises [Invalid_argument] when
    empty. *)

val min_payload : t -> int
(** Payload of the least entry.  Raises [Invalid_argument] when
    empty. *)

val drop_min : t -> unit
(** Remove the least entry.  Raises [Invalid_argument] when empty. *)

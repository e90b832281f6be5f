(** Allocation-free binary max-heap over [(priority, tie, task)] keys.

    The driver's priority list [α] pops the maximum
    [(priority, tie, task)] binding once per scheduled task.  The heap
    keeps the three key components in parallel unboxed arrays (doubling
    growth), so pushes and pops allocate nothing once the arrays reach
    the working size.

    Keys are ordered lexicographically with [Float.compare] on the two
    float components.  Task ids are unique within a heap, so keys are
    distinct, the maximum is unique, and the pop sequence matches any
    other faithful implementation of the same total order bit for bit,
    so schedules are bit-identical. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty heap; [capacity] (default 64) pre-sizes the arrays. *)

val length : t -> int
val is_empty : t -> bool

val push : t -> prio:float -> tie:float -> task:int -> unit
(** Insert a key.  The caller must not insert the same task twice
    without popping it in between (keys must stay distinct). *)

val max_task : t -> int
(** Task of the maximum key.  Raises [Invalid_argument] when empty. *)

val max_prio : t -> float
(** Priority of the maximum key.  Raises [Invalid_argument] when
    empty. *)

val drop_max : t -> unit
(** Remove the maximum key.  Raises [Invalid_argument] when empty. *)

val clear : t -> unit
(** Forget all keys, keeping the arrays. *)

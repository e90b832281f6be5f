(** Deterministic pseudo-random number generation.

    All randomness in the library flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    splitmix64 (Steele, Lea & Flood, OOPSLA'14): a tiny, fast, high-quality
    64-bit generator whose state can be {e split} into independent streams,
    which lets each random graph of a sweep own its own stream regardless of
    evaluation order. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator from [seed].  Equal seeds yield
    equal streams. *)

val copy : t -> t
(** [copy g] is a generator that will produce the same future stream as [g]
    without being affected by subsequent draws from [g]. *)

val split : t -> t
(** [split g] draws from [g] and returns a new generator whose stream is
    statistically independent of the remainder of [g]'s stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g n] is uniform over [0, n-1].  Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform over the inclusive range [lo, hi].
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float g x] is uniform over [0, x). Requires [x > 0]. *)

val float_in : t -> float -> float -> float
(** [float_in g lo hi] is uniform over [lo, hi). Requires [lo <= hi]. *)

val fill_float_in : t -> float array -> float -> float -> unit
(** [fill_float_in g a lo hi] sets [a.(0)], [a.(1)], … in order to
    [float_in g lo hi] draws: the same values from the same stream,
    without boxing a float per draw.  Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** [exponential g ~mean] draws from an exponential distribution. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample_distinct : t -> k:int -> n:int -> int array
(** [sample_distinct g ~k ~n] is [k] distinct integers drawn uniformly from
    [0, n-1], in random order.  Requires [0 <= k <= n]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

(** Deterministic task graphs of classic parallel kernels.

    These are the structured DAGs traditionally used to evaluate list
    schedulers (Gaussian elimination, FFT butterflies, wavefront sweeps).
    The examples and some integration tests run the fault-tolerant
    schedulers on them because their critical paths and widths are known
    in closed form, which makes results easy to sanity-check.

    Every generator raises [Invalid_argument] on a size outside its
    documented domain or on a negative or non-finite [volume]. *)

val gaussian_elimination : ?volume:float -> size:int -> unit -> Dag.t
(** Task graph of column-oriented Gaussian elimination on a [size × size]
    matrix: for each step [k], a pivot task [Tkk] feeding update tasks
    [Tkj] ([j > k]), each feeding the next step's task in column [j].
    [(size-1)(size+2)/2] tasks. *)

val fft : ?volume:float -> points:int -> unit -> Dag.t
(** Butterfly graph of an iterative radix-2 FFT on [points] inputs
    ([points] must be a power of two ≥ 2): [log2 points + 1] rows of
    [points] tasks; the task at row [r+1], column [c] depends on the two
    row-[r] butterflies partnered with [c]. *)

val wavefront : ?volume:float -> rows:int -> cols:int -> unit -> Dag.t
(** 2-D wavefront (Smith–Waterman / stencil sweep): task [(i,j)] depends
    on [(i-1,j)] and [(i,j-1)]. *)

val diamond : ?volume:float -> layers:int -> unit -> Dag.t
(** Diamond: widths 1, 2, …, [layers], …, 2, 1 with each task feeding its
    one or two neighbours below — a graph whose width equals [layers]. *)

val cholesky : ?volume:float -> tiles:int -> unit -> Dag.t
(** Tiled Cholesky factorization on a [tiles × tiles] lower-triangular
    tile matrix — the richest of the classic dense-linear-algebra DAGs,
    with four kernel families and their textbook dependences:
    - [POTRF k]: factor diagonal tile [k], after all its [SYRK] updates;
    - [TRSM k i] ([i > k]): solve panel tile, after [POTRF k] and the
      tile's [GEMM] updates;
    - [SYRK k i]: update diagonal tile [i] with panel [k], after
      [TRSM k i];
    - [GEMM k i j] ([k < j < i]): update tile [(i,j)], after [TRSM k i]
      and [TRSM k j].
    Task count: [Θ(tiles³/6)] — 4 tasks for [tiles = 2], 10 for 3, 20
    for 4. *)

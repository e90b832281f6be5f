(** Per-processor timeline state shared by every scheduler.

    One [t] tracks, for each processor, the committed busy slots and the
    append-only ready times of the FTSA engine:

    - [ready_opt]/[ready_pess] are the optimistic/pessimistic instants at
      which the processor's ready queue drains — the [r(Pj)] of
      equation (1) and its equation-(3) counterpart.  Every commit bumps
      them monotonically.
    - When built with [~insertion:true], commits additionally record the
      busy slot in a per-processor timeline sorted by start time, and
      {!earliest_gap} performs the insertion-based gap search of HEFT,
      PEFT and CPOP: the earliest start [>= ready] such that
      [start, start + duration) fits between committed slots.

    Replaces the four private [earliest_gap]/[insert_slot] copies the
    baselines used to carry and the bare ready arrays of the FTSA
    variants.  Gap searches are counted (calls and scanned slots) so the
    trace layer can report mean search depth. *)

type t

val create : m:int -> insertion:bool -> t
(** [create ~m ~insertion] builds the empty state for [m] processors.
    With [insertion:false] the slot timelines are not maintained (the
    FTSA family appends at the end of the ready queue and never looks
    back) and {!earliest_gap} must not be called. *)

val reset : t -> unit
(** Return to the freshly-created state — empty timelines, zero ready
    times, zero gap counters — keeping every array at its grown
    capacity.  This is what lets a {!Ftsched_kernel.Driver.workspace} be
    reused across scheduling calls without re-allocating. *)

val n_procs : t -> int

val ready_opt : t -> float array
(** Optimistic ready times [r(Pj)], indexed by processor: the latest
    optimistic finish committed on each so far, 0 when idle.  The live
    array, so hot loops read it without boxing a float per read;
    read-only — only {!commit_slot} and {!reset} write it. *)

val ready_pess : t -> float array
(** Pessimistic counterpart (equation (3) semantics). *)

val earliest_gap : t -> int -> ready:float -> duration:float -> float
(** [earliest_gap t p ~ready ~duration] is the earliest [start >= ready]
    such that [start, start + duration) overlaps no committed slot on
    [p].  Requires [~insertion:true] and non-overlapping committed slots
    (guaranteed when every commit start comes from this function).
    Raises [Invalid_argument] on a non-insertion state. *)

val commit_slot : t -> int -> start:float -> finish:float -> pess_finish:float -> unit
(** Record a committed replica on processor [p]: bumps [ready_opt] to
    [finish] and [ready_pess] to [pess_finish] (monotonically), and, on
    insertion states, inserts the [start, finish) busy slot into the
    timeline. *)

val iter_slots : t -> int -> (start:float -> finish:float -> unit) -> unit
(** [iter_slots t p f] applies [f] to every committed slot of [p] in
    increasing start order, allocating nothing — the hot-path
    counterpart of {!slots} for consumers that only walk the timeline
    (validation sweeps, trace emission).  Empty on non-insertion
    states. *)

val slots : t -> int -> (float * float) array
(** The committed [(start, finish)] slots of a processor in increasing
    start order; empty on non-insertion states.  Convenience wrapper
    over {!iter_slots} for the property tests. *)

type gap_stats = {
  searches : int;  (** calls to {!earliest_gap} *)
  scanned : int;  (** total committed slots examined across searches *)
}

val gap_stats : t -> gap_stats

(** Plain-text serialization of instances and schedules.

    A schedule is only reproducible together with its instance (DAG,
    platform, cost matrix), so the format embeds everything: a versioned,
    line-oriented text file that diffs well and round-trips exactly
    (floats are written as hex float literals, so no precision is lost).

    Typical uses: archiving the schedule behind a published figure,
    shipping failing cases into the test suite, and feeding external
    tooling.

    Writing and parsing are linear passes over the document: each
    writer call fills its own byte sink (writers may run on several
    domains at once), and the parser reads the input with one cursor,
    decoding plain decimal ints and canonical ["%h"] words in place.
    Any other word goes through [int_of_string] / [float_of_string], so
    decimal floats, [_] separators and uppercase hex are accepted. *)

val instance_to_string : Ftsched_model.Instance.t -> string
(** Raises [Invalid_argument] on a task label the line-oriented format
    cannot represent faithfully (newlines, tabs, leading/trailing or
    repeated spaces): such labels would come back different, so they are
    rejected at the serialization site. *)

val instance_of_string : string -> Ftsched_model.Instance.t
(** Raises [Failure] with a message naming the offending line (1-based,
    the line that was read) on malformed input, and [Invalid_argument]
    when a declared size is adversarial: negative or zero-processor
    counts, counts beyond {!max_tasks} / {!max_procs}
    / {!max_edges}, labels longer than {!max_label_length}, or counts
    that exceed what the remaining input could possibly hold — all
    checked {e before} any count-sized allocation, so hostile bytes
    cannot force huge allocations.  A bad edge (self-loop, repeated
    [(src, dst)], cycle) raises the [Invalid_argument] of
    {!Ftsched_dag.Dag.Builder}; a repeated edge is named by its id. *)

(** {2 Parser hardening caps}

    Absolute sanity bounds on declared sizes, checked before
    allocation.  Far above anything the experiment harness produces;
    network-facing callers ({!Ftsched_serve}) apply their own, tighter
    per-request caps on top. *)

val max_tasks : int
val max_procs : int
val max_edges : int
val max_label_length : int

val schedule_to_string : Schedule.t -> string
(** Embeds the instance.  Same label restriction as
    {!instance_to_string}. *)

val schedule_of_string : string -> Schedule.t
(** Raises [Failure] with a line-numbered message on malformed input.
    Out-of-range fields (replica processors vs [m], selection pair
    replica indices vs [eps], [eps] vs [m]) are rejected at their own
    line rather than surfacing later as array errors in consumers. *)

val save_schedule : Schedule.t -> path:string -> unit
val load_schedule : path:string -> Schedule.t

(** {2 Internals exposed for tests} *)

module Private : sig
  val hex_float : float -> string
  (** The writer's float formatting, run into a fresh sink: exactly the
      bytes of [Printf.sprintf "%h"] for every float, [nan] and
      [infinity] included. *)
end

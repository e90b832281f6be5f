(** The [Printf]-and-[split] reference codec.

    A frozen copy of the [ftsched v1] codec as it was before the direct
    byte writer: every field through [Printf.sprintf] into a [Buffer],
    the document split into lines and every line into words.  It exists
    purely as a differential baseline — {!Ftsched_schedule.Serialize}
    must emit identical bytes, and its parsers must give the same
    outcome (the same document, or the same exception with the same
    message) on every input, pristine or mutated.  [test_schedule] and
    the scale oracle check the two against each other.  Behavioural
    changes belong in {!Ftsched_schedule.Serialize}. *)

val instance_to_string : Ftsched_model.Instance.t -> string
val instance_of_string : string -> Ftsched_model.Instance.t
val schedule_to_string : Ftsched_schedule.Schedule.t -> string
val schedule_of_string : string -> Ftsched_schedule.Schedule.t

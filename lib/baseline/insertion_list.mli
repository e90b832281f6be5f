(** The insertion-based list scheduler that HEFT, PEFT and CPOP share.

    One replica per task, evaluated on every processor by sliding it into
    the earliest idle timeline gap at or after its input-arrival bound
    ({!Ftsched_kernel.Driver.eval_insertion}) and committed at that gap.
    The three heuristics differ only in the task order ([discipline]) and
    in the processor choice ([choose]); each derives its policy from
    {!policy} by record update of [discipline] and [choose]. *)

val policy : Ftsched_kernel.Driver.policy
(** The base: topological task order, earliest-finish processor. *)

(** Self-checking reproduction: the paper's qualitative claims as
    executable assertions.

    EXPERIMENTS.md argues that the reproduction preserves the paper's
    {e shapes} — who wins, by roughly what factor, where crossovers fall.
    This module turns each of those shape claims into a predicate over
    freshly computed experiment tables, so a single run
    ([ftsched experiment claims]) re-verifies the whole
    paper-vs-measured story instead of trusting a hand-written document.

    Verdicts are computed on means over the configured workload; with few
    graphs per point individual claims can wobble — [ftsched experiment]
    uses the default quick spec (8 graphs) or the paper spec under
    [--full]. *)

type verdict = {
  id : string;  (** short identifier, e.g. "fig1.ftsa-vs-ftbar-lb" *)
  claim : string;  (** the sentence being checked *)
  holds : bool;
  detail : string;  (** the numbers behind the verdict *)
}

val verify :
  ?spec:Workload.spec -> ?master_seed:int -> unit -> verdict list
(** Runs the ε = 1 and ε = 2 sweeps plus a reduced Table 1 and evaluates
    every claim.  Deterministic for a given spec and seed. *)

val to_table : verdict list -> Ftsched_util.Table.t

val all_hold : verdict list -> bool

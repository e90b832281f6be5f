(** Failure scenarios.

    The paper's crash experiments pick the failing processors uniformly at
    random and fail them for the whole execution (fail-silent / fail-stop,
    §2).  The timed variant — each chosen processor dies at a random
    instant — feeds the event-driven simulator, an extension beyond the
    paper's evaluation. *)

type t = { failed : int array }
(** Processors dead from time 0; entries are distinct. *)

val none : t

val of_list : int list -> t
(** Raises [Invalid_argument] on duplicates or negatives. *)

val random : Ftsched_util.Rng.t -> m:int -> count:int -> t
(** [count] distinct processors uniform over [0, m-1]. *)

val all_of_size : m:int -> count:int -> t list
(** Every subset of exactly [count] processors — exhaustive testing on
    small platforms. *)

val n_of_size : m:int -> count:int -> int
(** The binomial C([m], [count]): how many scenarios {!all_of_size}
    lists; 0 when [count] is outside [\[0, m\]]. *)

type timed = { proc : int; at : float }

val random_timed :
  Ftsched_util.Rng.t -> m:int -> count:int -> horizon:float -> timed list
(** [count] distinct processors, each failing at a uniform time in
    [0, horizon). *)

val exponential : Ftsched_util.Rng.t -> rates:float array -> float array
(** Per-processor fail instants drawn from exponential laws:
    [fail_times.(p) ~ Exp(rates.(p))], with [infinity] (and no draw, so
    streams stay aligned across platform variants) when [rates.(p) = 0].
    The result feeds [Event_sim.run ~fail_times] directly. *)

val exponential_timed :
  Ftsched_util.Rng.t -> rates:float array -> horizon:float -> timed list
(** Same draws as {!exponential}, keeping only failures striking before
    [horizon]. *)

val pp : Format.formatter -> t -> unit

(** {2 Communication faults}

    Beyond fail-stop processors, messages themselves can be lost: each
    inter-processor transfer fails an independent Bernoulli trial with
    probability [loss], and a link can suffer outage windows during which
    every arrival is dropped.  [Event_sim] implements a retransmission
    protocol on top — ack timeout of [rtt_factor] times the message's
    nominal transfer time, doubling on each of up to [retries] retries —
    and feeds messages that exhaust their retries into the same
    starvation accounting as a sender death. *)

type outage = { link_src : int; link_dst : int; from_t : float; until_t : float }
(** The directed link [link_src -> link_dst] drops every message arriving
    in [\[from_t, until_t)] — closed at the left: a message arriving
    exactly at [from_t] is lost. *)

type comm_faults = {
  loss : float;  (** per-attempt loss probability, in [[0, 1]] *)
  outages : outage list;
  retries : int;  (** retransmissions allowed per message *)
  rtt_factor : float;  (** first ack timeout = [rtt_factor *. w], >= 1 *)
  seed : int;  (** seeds the per-run loss-draw stream *)
}

val reliable : comm_faults
(** No loss, no outages — the engine takes the exact unfaulted code path
    (no random draws), so latencies are bit-identical to a run without
    communication faults. *)

val lossy :
  ?loss:float ->
  ?outages:outage list ->
  ?retries:int ->
  ?rtt_factor:float ->
  ?seed:int ->
  unit ->
  comm_faults
(** Validating constructor (defaults: loss 0, no outages, 3 retries,
    rtt_factor 2).  Raises [Invalid_argument] on a loss probability
    outside [[0, 1]], negative retries, or [rtt_factor < 1]. *)

val outage : src:int -> dst:int -> from_t:float -> until_t:float -> outage
(** Raises [Invalid_argument] on negative processors, [src = dst], or an
    empty/negative window. *)

val blackout : src:int -> dst:int -> outage
(** [outage ~from_t:0. ~until_t:infinity] — the link never delivers. *)

val is_reliable : comm_faults -> bool

val in_outage : comm_faults -> src:int -> dst:int -> at:float -> bool
(** Is an arrival on [src -> dst] at instant [at] inside an outage
    window?  Left-closed, right-open. *)

val pp_comm_faults : Format.formatter -> comm_faults -> unit

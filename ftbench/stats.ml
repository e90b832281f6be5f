(* The benchmark's own order-statistics rules.  Means, medians and
   percentiles themselves come from [Ftsched_util.Stats]. *)

module U = Ftsched_util.Stats

(* The percentile rule: a percentile [p] is reported only when at least ten
   samples lie beyond it, i.e. [n * (1 - p) >= 10]; below that it is the
   maximum of a handful of samples, not a percentile. *)
let supports ~n p = float_of_int n *. (1. -. p) >= 10. -. 1e-9

let percentile xs p =
  let n = Array.length xs in
  if n = 0 || not (supports ~n p) then None else Some (U.percentile xs (100. *. p))

(* The highest percentile, up to p99, that [n] samples support. *)
let tail_level ~n = Float.min 0.99 (1. -. (10. /. float_of_int (max 1 n)))

(* A run's tail: the [target] percentile, lowered to the highest one the
   samples support when there are too few for it, and the median when they
   support none above it (fewer than twenty samples). *)
let tail ~target xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  U.percentile xs (100. *. Float.max 0.5 (Float.min target (tail_level ~n)))

(* Quartiles by the same rule as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so spreads computed here match the
   ones an outside checker computes from the same values. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

module Rng = Ftsched_util.Rng

type proc = int

type t = {
  m : int;
  delay : float array array;
  avg_delay : float;
  max_delay_from : float array;
}

let compute_derived delay =
  let m = Array.length delay in
  let sum = ref 0. in
  let max_from = Array.make m 0. in
  for k = 0 to m - 1 do
    for h = 0 to m - 1 do
      if k <> h then begin
        sum := !sum +. delay.(k).(h);
        if delay.(k).(h) > max_from.(k) then max_from.(k) <- delay.(k).(h)
      end
    done
  done;
  let pairs = m * (m - 1) in
  let avg = if pairs = 0 then 0. else !sum /. float_of_int pairs in
  (avg, max_from)

let create ~delay =
  let m = Array.length delay in
  if m = 0 then invalid_arg "Platform.create: empty";
  Array.iter
    (fun row ->
      if Array.length row <> m then invalid_arg "Platform.create: not square")
    delay;
  for k = 0 to m - 1 do
    if delay.(k).(k) <> 0. then invalid_arg "Platform.create: nonzero diagonal";
    for h = 0 to m - 1 do
      if delay.(k).(h) < 0. || not (Float.is_finite delay.(k).(h)) then
        invalid_arg "Platform.create: bad delay"
    done
  done;
  let delay = Array.map Array.copy delay in
  let avg_delay, max_delay_from = compute_derived delay in
  { m; delay; avg_delay; max_delay_from }

let n_procs t = t.m
let delay t k h = t.delay.(k).(h)
let delay_row t k = t.delay.(k)
let avg_delay t = t.avg_delay
let max_delay_from t k = t.max_delay_from.(k)
let max_delays_from t = t.max_delay_from

let max_delay t = Array.fold_left Float.max 0. t.max_delay_from

let procs t = Array.init t.m (fun i -> i)

let pp ppf t =
  Format.fprintf ppf "platform{m=%d; d̄=%.3g; dmax=%.3g}" t.m t.avg_delay
    (max_delay t)

let homogeneous ~m ~unit_delay =
  if m <= 0 then invalid_arg "Platform.homogeneous";
  let delay =
    Array.init m (fun k ->
        Array.init m (fun h -> if k = h then 0. else unit_delay))
  in
  create ~delay

let random rng ~m ~delay_lo ~delay_hi ?(symmetric = true) () =
  if m <= 0 then invalid_arg "Platform.random";
  let delay = Array.make_matrix m m 0. in
  for k = 0 to m - 1 do
    for h = 0 to m - 1 do
      if k <> h && ((not symmetric) || k < h) then
        delay.(k).(h) <- Rng.float_in rng delay_lo delay_hi
    done
  done;
  if symmetric then
    for k = 0 to m - 1 do
      for h = 0 to k - 1 do
        delay.(k).(h) <- delay.(h).(k)
      done
    done;
  create ~delay

(* The 64-bit state lives unboxed in eight bytes: a [mutable int64]
   field would box a fresh Int64 on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let g = Bytes.create 8 in
  Bytes.set_int64_le g 0 state;
  g

let create ~seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* splitmix64 output function: advance by the golden gamma, then mix. *)
let[@inline] bits64 g =
  let z = Int64.add (Bytes.get_int64_le g 0) golden_gamma in
  Bytes.set_int64_le g 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split g = of_state (bits64 g)

(* Non-negative 62-bit integer: clearing the sign bits keeps [Int64.to_int]
   exact on 63-bit OCaml ints. *)
let bits_nonneg g = Int64.to_int (Int64.shift_right_logical (bits64 g) 2)

let int g n =
  assert (n > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let bound = (max_int / n) * n in
  let rec draw () =
    let r = bits_nonneg g in
    if r < bound then r mod n else draw ()
  in
  draw ()

let int_in g lo hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

(* 53 uniform mantissa bits mapped to [0,1). *)
let[@inline] unit_float g =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  r *. 0x1p-53

let float g x =
  assert (x > 0.);
  unit_float g *. x

let float_in g lo hi =
  assert (lo <= hi);
  lo +. (unit_float g *. (hi -. lo))

let fill_float_in g a lo hi =
  assert (lo <= hi);
  for i = 0 to Array.length a - 1 do
    a.(i) <- lo +. (unit_float g *. (hi -. lo))
  done

let bool g = Int64.logand (bits64 g) 1L = 1L
let bernoulli g p = unit_float g < p

let exponential g ~mean =
  let u = 1. -. unit_float g in
  -.mean *. log u

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_distinct g ~k ~n =
  assert (0 <= k && k <= n);
  if k = 0 then [||]
  else if 2 * k >= n then begin
    (* Dense case: shuffle a full index array and take a prefix. *)
    let all = Array.init n (fun i -> i) in
    shuffle g all;
    Array.sub all 0 k
  end
  else begin
    (* Sparse case: rejection into a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let c = int g n in
      if not (Hashtbl.mem seen c) then begin
        Hashtbl.add seen c ();
        out.(!filled) <- c;
        incr filled
      end
    done;
    out
  end

let pick g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))

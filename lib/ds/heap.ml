(* Array-based binary min-heap over (key, seq, payload) triples stored
   in three parallel unboxed arrays (doubling growth), so pushes and pops
   allocate nothing once the arrays reach the working size.  The order is
   lexicographic over all three fields, so it is total and the pop
   sequence matches any other faithful implementation of the same order
   bit for bit — what the pinned schedule and simulation digests rest
   on. *)

type t = {
  mutable key : float array;
  mutable seq : int array;
  mutable payload : int array;
  mutable len : int;
}

let create ?(capacity = 64) () =
  let capacity = max 1 capacity in
  {
    key = Array.make capacity 0.;
    seq = Array.make capacity 0;
    payload = Array.make capacity 0;
    len = 0;
  }

let length h = h.len
let is_empty h = h.len = 0
let clear h = h.len <- 0

(* Comparisons are written out inline in [push] and [drop_min]: keys are
   never NaN, so [k1 < k2 || (k1 = k2 && ...)] reproduces the
   [Float.compare] lexicographic order with plain float compares — no
   helper call, no boxing under the non-flambda compiler.  The payload
   is compared only on an exact (key, seq) tie. *)

let grow h =
  let cap = Array.length h.seq in
  if h.len = cap then begin
    let ncap = 2 * cap in
    let nkey = Array.make ncap 0. in
    let nseq = Array.make ncap 0 in
    let npayload = Array.make ncap 0 in
    Array.blit h.key 0 nkey 0 h.len;
    Array.blit h.seq 0 nseq 0 h.len;
    Array.blit h.payload 0 npayload 0 h.len;
    h.key <- nkey;
    h.seq <- nseq;
    h.payload <- npayload
  end

(* Both sifts move a hole instead of swapping: each displaced element is
   written once, and the carried element lands in its final slot at the
   end — same heap order, roughly a third of the memory traffic. *)
let push h ~key ~seq ~payload =
  grow h;
  let i = ref h.len in
  h.len <- h.len + 1;
  let sifting = ref true in
  while !sifting && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pkey = h.key.(parent) and pseq = h.seq.(parent) in
    if
      key < pkey
      || key = pkey
         && (seq < pseq || (seq = pseq && payload < h.payload.(parent)))
    then begin
      h.key.(!i) <- pkey;
      h.seq.(!i) <- pseq;
      h.payload.(!i) <- h.payload.(parent);
      i := parent
    end
    else sifting := false
  done;
  h.key.(!i) <- key;
  h.seq.(!i) <- seq;
  h.payload.(!i) <- payload

let min_key h =
  if h.len = 0 then invalid_arg "Heap.min_key: empty";
  h.key.(0)

let min_seq h =
  if h.len = 0 then invalid_arg "Heap.min_seq: empty";
  h.seq.(0)

let min_payload h =
  if h.len = 0 then invalid_arg "Heap.min_payload: empty";
  h.payload.(0)

let drop_min h =
  if h.len = 0 then invalid_arg "Heap.drop_min: empty";
  h.len <- h.len - 1;
  let n = h.len in
  if n > 0 then begin
    let key = h.key.(n) and seq = h.seq.(n) in
    let payload = h.payload.(n) in
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let child =
          if r < n then begin
            let lkey = h.key.(l) and rkey = h.key.(r) in
            if
              rkey < lkey
              || rkey = lkey
                 && (h.seq.(r) < h.seq.(l)
                    || h.seq.(r) = h.seq.(l) && h.payload.(r) < h.payload.(l)
                    )
            then r
            else l
          end
          else l
        in
        let ckey = h.key.(child) and cseq = h.seq.(child) in
        if
          ckey < key
          || ckey = key
             && (cseq < seq || (cseq = seq && h.payload.(child) < payload))
        then begin
          h.key.(!i) <- ckey;
          h.seq.(!i) <- cseq;
          h.payload.(!i) <- h.payload.(child);
          i := child
        end
        else sifting := false
      end
    done;
    h.key.(!i) <- key;
    h.seq.(!i) <- seq;
    h.payload.(!i) <- payload
  end

(* A pair is one int: the source replica above [shift] bits, the
   destination below. *)
let shift = 30
let mask = (1 lsl shift) - 1

type t =
  | All_to_all
  | Selected of { off : int array; pairs : int array; widest : int }
      (* edge [e]'s packed pairs are [pairs.(off.(e))] …
         [pairs.(off.(e + 1) - 1)]; [widest] is the longest row *)

let all_to_all = All_to_all
let is_all_to_all t = t == All_to_all

let fits t ~n_edges =
  match t with
  | All_to_all -> true
  | Selected { off; _ } -> Array.length off = n_edges + 1

let widest t ~eps =
  match t with
  | All_to_all -> (eps + 1) * (eps + 1)
  | Selected { widest; _ } -> widest

let pairs t ~eps e ~srcs ~dsts =
  match t with
  | All_to_all ->
      for s = 0 to eps do
        for d = 0 to eps do
          srcs.((s * (eps + 1)) + d) <- s;
          dsts.((s * (eps + 1)) + d) <- d
        done
      done;
      (eps + 1) * (eps + 1)
  | Selected { off; pairs; _ } ->
      let o = off.(e) in
      for i = o to off.(e + 1) - 1 do
        srcs.(i - o) <- pairs.(i) lsr shift;
        dsts.(i - o) <- pairs.(i) land mask
      done;
      off.(e + 1) - o

let senders t ~eps e ~dst into =
  match t with
  | All_to_all ->
      for s = 0 to eps do
        into.(s) <- s
      done;
      eps + 1
  | Selected { off; pairs; _ } ->
      let n = ref 0 in
      for i = off.(e) to off.(e + 1) - 1 do
        if pairs.(i) land mask = dst then begin
          into.(!n) <- pairs.(i) lsr shift;
          incr n
        end
      done;
      !n

let receivers t ~eps edges ~lo ~hi ~src ~idx ~dsts ~at =
  let n = ref at in
  (match t with
  | All_to_all ->
      for j = lo to hi - 1 do
        for d = 0 to eps do
          idx.(!n) <- j;
          dsts.(!n) <- d;
          incr n
        done
      done
  | Selected { off; pairs; _ } ->
      for j = lo to hi - 1 do
        let e = edges.(j) in
        for i = off.(e) to off.(e + 1) - 1 do
          if pairs.(i) lsr shift = src then begin
            idx.(!n) <- j;
            dsts.(!n) <- pairs.(i) land mask;
            incr n
          end
        done
      done);
  !n

let sender_counts t ~eps edges ~lo ~hi ~counts ~at =
  let n = hi - lo in
  match t with
  | All_to_all -> Array.fill counts at ((eps + 1) * n) (eps + 1)
  | Selected { off; pairs; _ } ->
      Array.fill counts at ((eps + 1) * n) 0;
      for j = lo to hi - 1 do
        let e = edges.(j) in
        for i = off.(e) to off.(e + 1) - 1 do
          let c = at + ((pairs.(i) land mask) * n) + (j - lo) in
          counts.(c) <- counts.(c) + 1
        done
      done

let is_one_to_one t ~eps e =
  let k = eps + 1 and w = widest t ~eps in
  let srcs = Array.make w 0 and dsts = Array.make w 0 in
  let n = pairs t ~eps e ~srcs ~dsts in
  let src_seen = Array.make k false and dst_seen = Array.make k false in
  let ok = ref (n = k) in
  for i = 0 to n - 1 do
    let s = srcs.(i) and d = dsts.(i) in
    if s >= k || d >= k || src_seen.(s) || dst_seen.(d) then ok := false
    else begin
      src_seen.(s) <- true;
      dst_seen.(d) <- true
    end
  done;
  !ok

type builder = {
  mutable edges : int;
  mutable start : int array;
      (* per edge: where its row begins in [buf], -1 until started *)
  mutable len : int array;  (* per edge: pairs in its row *)
  mutable buf : int array;  (* every row, in the order written *)
  mutable n : int;
  mutable row : int;  (* the row [push] appends to *)
  mutable rows : int;  (* rows started since [clear] *)
}

let builder () =
  {
    edges = 0;
    start = [||];
    len = [||];
    buf = [||];
    n = 0;
    row = -1;
    rows = 0;
  }

let clear b ~n_edges =
  if Array.length b.len < n_edges then begin
    b.start <- Array.make n_edges (-1);
    b.len <- Array.make n_edges 0
  end
  else begin
    Array.fill b.start 0 n_edges (-1);
    Array.fill b.len 0 n_edges 0
  end;
  b.edges <- n_edges;
  b.n <- 0;
  b.row <- -1;
  b.rows <- 0

let start_row b e =
  if e < 0 || e >= b.edges then invalid_arg "Comm_plan.start_row: edge";
  if b.start.(e) >= 0 then invalid_arg "Comm_plan.start_row: row written twice";
  b.start.(e) <- b.n;
  b.row <- e;
  b.rows <- b.rows + 1

(* Room for [n] more pairs: when full, for every edge's row at the rows'
   mean length so far. *)
let reserve b n =
  if b.n + n > Array.length b.buf then begin
    let mean = (b.n + b.rows - 1) / b.rows in
    let a = Array.make (max (b.n + n) (max 64 (max (2 * b.n) (mean * b.edges)))) 0 in
    Array.blit b.buf 0 a 0 b.n;
    b.buf <- a
  end

let[@inline] check_pair fn ~src ~dst =
  if src < 0 || src > mask || dst < 0 || dst > mask then
    invalid_arg ("Comm_plan." ^ fn ^ ": replica index out of range")

let push b ~src ~dst =
  if b.row < 0 then invalid_arg "Comm_plan.push: no row started";
  check_pair "push" ~src ~dst;
  reserve b 1;
  b.buf.(b.n) <- (src lsl shift) lor dst;
  b.n <- b.n + 1;
  b.len.(b.row) <- b.len.(b.row) + 1

let write_row b e ~n ~srcs ~dsts =
  start_row b e;
  reserve b n;
  for i = 0 to n - 1 do
    let src = srcs.(i) and dst = dsts.(i) in
    check_pair "write_row" ~src ~dst;
    b.buf.(b.n + i) <- (src lsl shift) lor dst
  done;
  b.n <- b.n + n;
  b.len.(e) <- n

let build b =
  let off = Array.make (b.edges + 1) 0 and widest = ref 0 in
  for e = 0 to b.edges - 1 do
    off.(e + 1) <- off.(e) + b.len.(e);
    widest := max !widest b.len.(e)
  done;
  let pairs = Array.make off.(b.edges) 0 in
  for e = 0 to b.edges - 1 do
    if b.len.(e) > 0 then Array.blit b.buf b.start.(e) pairs off.(e) b.len.(e)
  done;
  Selected { off; pairs; widest = !widest }

type pair = { src_replica : int; dst_replica : int }

let of_lists rows =
  let b = builder () in
  clear b ~n_edges:(Array.length rows);
  Array.iteri
    (fun e row ->
      start_row b e;
      List.iter (fun p -> push b ~src:p.src_replica ~dst:p.dst_replica) row)
    rows;
  build b

let to_list t ~eps e =
  let w = widest t ~eps in
  let srcs = Array.make w 0 and dsts = Array.make w 0 in
  List.init (pairs t ~eps e ~srcs ~dsts) (fun i ->
      { src_replica = srcs.(i); dst_replica = dsts.(i) })

let row_list b e =
  List.init b.len.(e) (fun i ->
      let p = b.buf.(b.start.(e) + i) in
      (p lsr shift, p land mask))

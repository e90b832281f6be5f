(* Typed validation instead of [assert], which -noassert compiles out:
   every entry point checks its arguments before building anything. *)
let check ~who ~volume ok what =
  if not ok then invalid_arg (Printf.sprintf "Classic.%s: %s" who what);
  if not (Float.is_finite volume) || volume < 0. then
    invalid_arg
      (Printf.sprintf "Classic.%s: volume %g must be finite and >= 0" who
         volume)

let gaussian_elimination ?(volume = 100.) ~size () =
  check ~who:"gaussian_elimination" ~volume (size >= 2)
    (Printf.sprintf "size %d must be >= 2" size);
  let b = Dag.Builder.create () in
  (* ids.(k).(j) is the update task of column j at elimination step k
     (j = k means the pivot task of step k). *)
  let ids = Array.make_matrix size size (-1) in
  for k = 0 to size - 2 do
    ids.(k).(k) <- Dag.Builder.add_task ~label:(Printf.sprintf "piv%d" k) b;
    for j = k + 1 to size - 1 do
      ids.(k).(j) <-
        Dag.Builder.add_task ~label:(Printf.sprintf "upd%d_%d" k j) b
    done
  done;
  for k = 0 to size - 2 do
    for j = k + 1 to size - 1 do
      (* Pivot row broadcast to each column update of the same step. *)
      Dag.Builder.add_edge b ~src:ids.(k).(k) ~dst:ids.(k).(j) ~volume;
      (* Updated column feeds the next step (pivot if j = k+1). *)
      if k + 1 <= size - 2 then
        Dag.Builder.add_edge b ~src:ids.(k).(j) ~dst:ids.(k + 1).(max (k + 1) j)
          ~volume
    done
  done;
  Dag.Builder.build b

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let fft ?(volume = 100.) ~points () =
  check ~who:"fft" ~volume
    (points >= 2 && is_power_of_two points)
    (Printf.sprintf "points %d must be a power of two >= 2" points);
  let stages =
    let rec log2 acc n = if n = 1 then acc else log2 (acc + 1) (n / 2) in
    log2 0 points
  in
  let b = Dag.Builder.create () in
  let rows = stages + 1 in
  let ids = Array.make_matrix rows points (-1) in
  for r = 0 to rows - 1 do
    for c = 0 to points - 1 do
      ids.(r).(c) <- Dag.Builder.add_task ~label:(Printf.sprintf "f%d_%d" r c) b
    done
  done;
  for r = 0 to stages - 1 do
    (* Stage r pairs indices differing in bit (stages - 1 - r): the classic
       decimation-in-frequency butterfly ordering. *)
    let stride = 1 lsl (stages - 1 - r) in
    for c = 0 to points - 1 do
      let partner = c lxor stride in
      Dag.Builder.add_edge b ~src:ids.(r).(c) ~dst:ids.(r + 1).(c) ~volume;
      Dag.Builder.add_edge b ~src:ids.(r).(partner) ~dst:ids.(r + 1).(c) ~volume
    done
  done;
  Dag.Builder.build b

let wavefront ?(volume = 100.) ~rows ~cols () =
  check ~who:"wavefront" ~volume
    (rows > 0 && cols > 0)
    (Printf.sprintf "rows %d and cols %d must be positive" rows cols);
  let b = Dag.Builder.create () in
  let ids = Array.make_matrix rows cols (-1) in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      ids.(i).(j) <- Dag.Builder.add_task ~label:(Printf.sprintf "w%d_%d" i j) b
    done
  done;
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if i > 0 then Dag.Builder.add_edge b ~src:ids.(i - 1).(j) ~dst:ids.(i).(j) ~volume;
      if j > 0 then Dag.Builder.add_edge b ~src:ids.(i).(j - 1) ~dst:ids.(i).(j) ~volume
    done
  done;
  Dag.Builder.build b

let cholesky ?(volume = 100.) ~tiles () =
  check ~who:"cholesky" ~volume (tiles >= 2)
    (Printf.sprintf "tiles %d must be >= 2" tiles);
  let b = Dag.Builder.create () in
  let t = tiles in
  (* Same-tile updates are chained (the usual task-graph linearization of
     commuting accumulations), so each kernel depends on at most three
     predecessors: its panel inputs and the previous writer of its
     output tile. *)
  let potrf = Array.make t (-1) in
  let trsm = Array.make_matrix t t (-1) in  (* trsm.(k).(i), i > k *)
  let syrk = Array.make_matrix t t (-1) in  (* syrk.(k).(i), i > k *)
  let gemm = Hashtbl.create 64 in  (* (k,i,j) with k < j < i *)
  let edge src dst = Dag.Builder.add_edge b ~src ~dst ~volume in
  for k = 0 to t - 1 do
    potrf.(k) <- Dag.Builder.add_task ~label:(Printf.sprintf "potrf%d" k) b;
    if k >= 1 then edge syrk.(k - 1).(k) potrf.(k);
    for i = k + 1 to t - 1 do
      trsm.(k).(i) <-
        Dag.Builder.add_task ~label:(Printf.sprintf "trsm%d_%d" k i) b;
      edge potrf.(k) trsm.(k).(i);
      if k >= 1 then edge (Hashtbl.find gemm (k - 1, i, k)) trsm.(k).(i)
    done;
    for i = k + 1 to t - 1 do
      syrk.(k).(i) <-
        Dag.Builder.add_task ~label:(Printf.sprintf "syrk%d_%d" k i) b;
      edge trsm.(k).(i) syrk.(k).(i);
      if k >= 1 then edge syrk.(k - 1).(i) syrk.(k).(i)
    done;
    for i = k + 1 to t - 1 do
      for j = k + 1 to i - 1 do
        let g =
          Dag.Builder.add_task ~label:(Printf.sprintf "gemm%d_%d_%d" k i j) b
        in
        Hashtbl.replace gemm (k, i, j) g;
        edge trsm.(k).(i) g;
        edge trsm.(k).(j) g;
        if k >= 1 then edge (Hashtbl.find gemm (k - 1, i, j)) g
      done
    done
  done;
  Dag.Builder.build b

let diamond ?(volume = 100.) ~layers () =
  check ~who:"diamond" ~volume (layers > 0)
    (Printf.sprintf "layers %d must be positive" layers);
  let b = Dag.Builder.create () in
  let layer w lvl =
    Array.init w (fun i ->
        Dag.Builder.add_task ~label:(Printf.sprintf "d%d_%d" lvl i) b)
  in
  let widths =
    Array.init ((2 * layers) - 1) (fun l ->
        if l < layers then l + 1 else (2 * layers) - 1 - l)
  in
  let rows = Array.mapi (fun l w -> layer w l) widths in
  for l = 0 to Array.length rows - 2 do
    let cur = rows.(l) and nxt = rows.(l + 1) in
    let wc = Array.length cur and wn = Array.length nxt in
    if wn > wc then
      (* expanding: task i feeds i and i+1 *)
      Array.iteri
        (fun i src ->
          Dag.Builder.add_edge b ~src ~dst:nxt.(i) ~volume;
          Dag.Builder.add_edge b ~src ~dst:nxt.(i + 1) ~volume)
        cur
    else
      (* contracting: task i feeds i-1 and i (clamped) *)
      Array.iteri
        (fun i src ->
          if i > 0 then Dag.Builder.add_edge b ~src ~dst:nxt.(i - 1) ~volume;
          if i < wn then Dag.Builder.add_edge b ~src ~dst:nxt.(i) ~volume)
        cur
  done;
  Dag.Builder.build b

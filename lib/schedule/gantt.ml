module Instance = Ftsched_model.Instance

let render ?(width = 92) s =
  let inst = Schedule.instance s in
  let m = Instance.n_procs inst in
  let horizon = Float.max (Schedule.latency_upper_bound s) 1e-9 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "Gantt (horizon %.4g, %d procs, eps=%d)\n" horizon m
       (Schedule.eps s));
  for p = 0 to m - 1 do
    let line = Bytes.make width '.' in
    Array.iter
      (fun (r : Schedule.replica) ->
        let c0 =
          int_of_float (r.start /. horizon *. float_of_int (width - 1))
        in
        let c1 =
          int_of_float (r.finish /. horizon *. float_of_int (width - 1))
        in
        let c0 = max 0 (min (width - 1) c0)
        and c1 = max 0 (min (width - 1) c1) in
        let label = string_of_int r.task in
        for c = c0 to c1 do
          Bytes.set line c '#'
        done;
        String.iteri
          (fun i ch -> if c0 + i <= c1 then Bytes.set line (c0 + i) ch)
          label)
      (Schedule.timeline s p);
    Buffer.add_string buf (Printf.sprintf "P%-3d |%s|\n" p (Bytes.to_string line))
  done;
  Buffer.contents buf

(* Evenly spread hues; same task = same color on every processor. *)
let task_color task =
  let hue = float_of_int (task * 47 mod 360) in
  Printf.sprintf "hsl(%.0f, 65%%, 62%%)" hue

let render_svg ?(width = 960) ?(row_height = 26) s =
  let inst = Schedule.instance s in
  let m = Instance.n_procs inst in
  let horizon = Float.max (Schedule.latency_upper_bound s) 1e-9 in
  let margin_left = 46 and margin_top = 24 in
  let lane_w = width - margin_left - 12 in
  let x_of t = margin_left + int_of_float (t /. horizon *. float_of_int lane_w) in
  let height = margin_top + (m * row_height) + 34 in
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
        font-family=\"sans-serif\" font-size=\"10\">\n"
       width height);
  Buffer.add_string buf
    (Printf.sprintf
       "<text x=\"%d\" y=\"14\">Gantt — eps=%d, M*=%.4g, M=%.4g</text>\n"
       margin_left (Schedule.eps s)
       (Schedule.latency_lower_bound s)
       (Schedule.latency_upper_bound s));
  for p = 0 to m - 1 do
    let y = margin_top + (p * row_height) in
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"4\" y=\"%d\">P%d</text>\n<line x1=\"%d\" y1=\"%d\" \
          x2=\"%d\" y2=\"%d\" stroke=\"#ccc\"/>\n"
         (y + (row_height / 2) + 4)
         p margin_left
         (y + row_height)
         (margin_left + lane_w)
         (y + row_height));
    Array.iter
      (fun (r : Schedule.replica) ->
        let x0 = x_of r.start and x1 = x_of r.finish in
        let xp = x_of r.pess_finish in
        let yy = y + 3 in
        let hh = row_height - 6 in
        (* pessimistic whisker *)
        Buffer.add_string buf
          (Printf.sprintf
             "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#999\" \
              stroke-dasharray=\"2,2\"/>\n"
             x1
             (yy + (hh / 2))
             xp
             (yy + (hh / 2)));
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
              fill=\"%s\" stroke=\"#333\"/>\n"
             x0 yy
             (max 1 (x1 - x0))
             hh (task_color r.task));
        Buffer.add_string buf
          (Printf.sprintf "<text x=\"%d\" y=\"%d\">%d</text>\n" (x0 + 2)
             (yy + hh - 3) r.task))
      (Schedule.timeline s p)
  done;
  (* time axis with five ticks *)
  let axis_y = margin_top + (m * row_height) + 12 in
  for i = 0 to 4 do
    let t = horizon *. float_of_int i /. 4. in
    Buffer.add_string buf
      (Printf.sprintf "<text x=\"%d\" y=\"%d\">%.4g</text>\n" (x_of t) axis_y t)
  done;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

let save_svg ?width ?row_height s ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render_svg ?width ?row_height s))

let render_listing s =
  let inst = Schedule.instance s in
  let m = Instance.n_procs inst in
  let buf = Buffer.create 4096 in
  for p = 0 to m - 1 do
    let timeline = Schedule.timeline s p in
    if Array.length timeline > 0 then begin
      Buffer.add_string buf (Printf.sprintf "P%d:\n" p);
      Array.iter
        (fun (r : Schedule.replica) ->
          Buffer.add_string buf
            (Printf.sprintf "  task %d (copy %d): [%.4g, %.4g)  worst [%.4g, %.4g)\n"
               r.task r.index r.start r.finish r.pess_start r.pess_finish))
        timeline
    end
  done;
  Buffer.contents buf

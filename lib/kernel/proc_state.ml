(* Per-processor timelines: growable sorted slot arrays plus the
   append-only ready times of the FTSA engine.

   The slot arrays are kept sorted by start time.  Committed slots never
   overlap (commits come from [earliest_gap]), so finish times are sorted
   too and the gap search can skip every slot finishing at or before
   [ready] with one binary search before its linear scan — the list-based
   baselines used to rescan (and re-cons) the whole prefix on every
   insertion. *)

type timeline = {
  mutable starts : float array;
  mutable finishes : float array;
  mutable len : int;
}

type t = {
  insertion : bool;
  lines : timeline array;
  r_opt : float array;
  r_pess : float array;
  mutable searches : int;
  mutable scanned : int;
}

type gap_stats = { searches : int; scanned : int }

let create ~m ~insertion =
  if m <= 0 then invalid_arg "Proc_state.create: need m > 0";
  {
    insertion;
    lines =
      Array.init m (fun _ ->
          { starts = [||]; finishes = [||]; len = 0 });
    r_opt = Array.make m 0.;
    r_pess = Array.make m 0.;
    searches = 0;
    scanned = 0;
  }

let reset t =
  Array.iter (fun line -> line.len <- 0) t.lines;
  Array.fill t.r_opt 0 (Array.length t.r_opt) 0.;
  Array.fill t.r_pess 0 (Array.length t.r_pess) 0.;
  t.searches <- 0;
  t.scanned <- 0

let n_procs t = Array.length t.lines
let ready_opt t = t.r_opt
let ready_pess t = t.r_pess

(* First slot index whose finish exceeds [ready]: slots before it end at
   or before [ready] and can neither host a gap nor move the cursor. *)
let first_after line ~ready =
  let lo = ref 0 and hi = ref line.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if line.finishes.(mid) <= ready then lo := mid + 1 else hi := mid
  done;
  !lo

let earliest_gap t p ~ready ~duration =
  if not t.insertion then
    invalid_arg "Proc_state.earliest_gap: non-insertion state";
  t.searches <- t.searches + 1;
  let line = t.lines.(p) in
  let i = ref (first_after line ~ready) in
  let cursor = ref ready in
  let result = ref None in
  while !result = None && !i < line.len do
    t.scanned <- t.scanned + 1;
    if !cursor +. duration <= line.starts.(!i) then result := Some !cursor
    else begin
      if line.finishes.(!i) > !cursor then cursor := line.finishes.(!i);
      incr i
    end
  done;
  match !result with Some s -> s | None -> !cursor

let grow line =
  let cap = Array.length line.starts in
  if line.len = cap then begin
    let ncap = max 8 (2 * cap) in
    let ns = Array.make ncap 0. and nf = Array.make ncap 0. in
    Array.blit line.starts 0 ns 0 line.len;
    Array.blit line.finishes 0 nf 0 line.len;
    line.starts <- ns;
    line.finishes <- nf
  end

let insert line ~start ~finish =
  grow line;
  (* First index with a strictly larger start: insertion keeps equal
     starts in arrival order, matching the old list-based insert_slot. *)
  let lo = ref 0 and hi = ref line.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if line.starts.(mid) <= start then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  Array.blit line.starts i line.starts (i + 1) (line.len - i);
  Array.blit line.finishes i line.finishes (i + 1) (line.len - i);
  line.starts.(i) <- start;
  line.finishes.(i) <- finish;
  line.len <- line.len + 1

let commit_slot t p ~start ~finish ~pess_finish =
  if finish > t.r_opt.(p) then t.r_opt.(p) <- finish;
  if pess_finish > t.r_pess.(p) then t.r_pess.(p) <- pess_finish;
  if t.insertion then insert t.lines.(p) ~start ~finish

let slots t p =
  let line = t.lines.(p) in
  Array.init line.len (fun i -> (line.starts.(i), line.finishes.(i)))

let gap_stats (t : t) = { searches = t.searches; scanned = t.scanned }

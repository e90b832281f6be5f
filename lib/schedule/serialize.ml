module Dag = Ftsched_dag.Dag
module Platform = Ftsched_platform.Platform
module Instance = Ftsched_model.Instance

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)

(* Every writer call owns one growable byte sink: fields are written
   straight into it, with no intermediate string per field.  There is no
   shared scratch buffer, so writers may run on several domains at once. *)
type sink = { mutable bytes : Bytes.t; mutable len : int }

let reserve s n =
  let need = s.len + n in
  if need > Bytes.length s.bytes then begin
    let grown = Bytes.create (max need (2 * Bytes.length s.bytes)) in
    Bytes.blit s.bytes 0 grown 0 s.len;
    s.bytes <- grown
  end

let add_char s c =
  reserve s 1;
  Bytes.unsafe_set s.bytes s.len c;
  s.len <- s.len + 1

let add_string s str =
  let n = String.length str in
  reserve s n;
  Bytes.unsafe_blit_string str 0 s.bytes s.len n;
  s.len <- s.len + n

let put b p c =
  Bytes.unsafe_set b p c;
  p + 1

(* The decimal digits of [n >= 0] at [p]; returns the position after. *)
let put_digits b p n =
  let rec width n w = if n < 10 then w else width (n / 10) (w + 1) in
  let w = width n 1 in
  let n = ref n in
  for i = p + w - 1 downto p do
    Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!n mod 10)));
    n := !n / 10
  done;
  p + w

let add_int s n =
  if n = min_int then add_string s (string_of_int n)
  else begin
    reserve s 20;
    let p = if n < 0 then put s.bytes s.len '-' else s.len in
    s.len <- put_digits s.bytes p (abs n)
  end

let hex_digits = "0123456789abcdef"

(* Exactly the bytes of [Printf.sprintf "%h" x]: a sign byte whenever
   the sign bit is set ([-nan] included), [nan] and [infinity], [0x0p+0]
   for zero, a [0x0.] mantissa at exponent -1022 for subnormals, and the
   fraction's trailing zero nibbles dropped.  Floats are written as hex
   literals so that parsing restores the exact bit pattern. *)
let add_float s x =
  reserve s 24;
  let b = s.bytes in
  let bits = Int64.bits_of_float x in
  let p = if Int64.compare bits 0L < 0 then put b s.len '-' else s.len in
  let biased = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
  let frac = Int64.to_int bits land 0xf_ffff_ffff_ffff in
  if biased = 0x7ff then begin
    let word = if frac = 0 then "infinity" else "nan" in
    Bytes.blit_string word 0 b p (String.length word);
    s.len <- p + String.length word
  end
  else begin
    let p = put b p '0' in
    let p = put b p 'x' in
    let p = put b p (if biased = 0 then '0' else '1') in
    let p =
      if frac = 0 then p
      else begin
        let p = ref (put b p '.') and rest = ref frac and shift = ref 48 in
        while !rest <> 0 do
          p := put b !p hex_digits.[(!rest lsr !shift) land 15];
          rest := !rest land ((1 lsl !shift) - 1);
          shift := !shift - 4
        done;
        !p
      end
    in
    let e = if biased = 0 then if frac = 0 then 0 else -1022 else biased - 1023 in
    let p = put b p 'p' in
    let p = put b p (if e < 0 then '-' else '+') in
    s.len <- put_digits b p (abs e)
  end

let hex_float x =
  let s = { bytes = Bytes.create 24; len = 0 } in
  add_float s x;
  Bytes.sub_string s.bytes 0 s.len

(* The textual format stores labels as the tail of a space-separated
   line, so only labels that survive trimming and whitespace
   normalization can round-trip.  Anything else is rejected up front —
   at the serialization site — instead of silently coming back
   different. *)
let label_round_trips label =
  let rejoined =
    String.split_on_char ' ' label
    |> List.filter (fun w -> w <> "")
    |> String.concat " "
  in
  (not (String.exists (fun c -> c = '\n' || c = '\r' || c = '\t') label))
  && rejoined = label

let add_row s tag row n =
  add_string s tag;
  for i = 0 to n - 1 do
    if i > 0 then add_char s ' ';
    add_float s (row i)
  done;
  add_char s '\n'

let add_instance s inst =
  let g = Instance.dag inst in
  let pl = Instance.platform inst in
  let v = Dag.n_tasks g and m = Platform.n_procs pl in
  add_string s "instance ";
  add_int s v;
  add_char s ' ';
  add_int s m;
  add_char s ' ';
  add_int s (Dag.n_edges g);
  add_char s '\n';
  for t = 0 to v - 1 do
    let label = Dag.label g t in
    if not (label_round_trips label) then
      invalid_arg
        (Printf.sprintf
           "Serialize: task %d label %S does not round-trip (newlines, \
            leading/trailing or repeated whitespace are not representable)"
           t label);
    add_string s "label ";
    add_string s label;
    add_char s '\n'
  done;
  Dag.iter_edges g (fun _e ~src ~dst ~volume ->
      add_string s "edge ";
      add_int s src;
      add_char s ' ';
      add_int s dst;
      add_char s ' ';
      add_float s volume;
      add_char s '\n');
  for k = 0 to m - 1 do
    add_row s "delay " (Platform.delay pl k) m
  done;
  for t = 0 to v - 1 do
    add_row s "exec " (Instance.exec inst t) m
  done

(* A first capacity at or a little above the usual size of the document
   (a random float takes 20 or 21 bytes), so that it rarely has to grow;
   [extra] is the schedule's part. *)
let sink_for ?(extra = 0) inst =
  let v = Instance.n_tasks inst and m = Instance.n_procs inst in
  let e = Dag.n_edges (Instance.dag inst) in
  let estimate = 64 + (16 * v) + (44 * e) + (23 * m * (m + v)) + extra in
  { bytes = Bytes.create (max 256 estimate); len = 0 }

let contents s = Bytes.sub_string s.bytes 0 s.len

let instance_to_string inst =
  let s = sink_for inst in
  add_string s "ftsched v1\n";
  add_instance s inst;
  contents s

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

(* One cursor over the whole input.  [pos] counts the lines read so far,
   so it is also the number of the line being parsed.  The words of the
   current line, trimmed in place and split on [' '], are
   [s.[ws.(k) .. we.(k)-1]] for [k < nw]; a line that is not blank has
   at least one. *)
type cursor = {
  s : string;
  n_lines : int;
  mutable next_off : int;
  mutable pos : int;
  mutable ws : int array;
  mutable we : int array;
  mutable nw : int;
}

let fail cur fmt =
  Printf.ksprintf (fun s -> failwith (Printf.sprintf "line %d: %s" cur.pos s)) fmt

(* Caps on declared sizes.  The parser allocates arrays sized by the
   counts a document {e declares}, so adversarial bytes ("instance
   999999999 9 9") could force huge allocations before any per-line
   validation fires.  Every declared count is checked against these caps
   — and against the amount of input actually present — before anything
   is allocated; violations raise a descriptive [Invalid_argument]. *)
let max_tasks = 200_000
let max_procs = 4_096
let max_edges = 2_000_000
let max_label_length = 4_096

let reject cur fmt =
  Printf.ksprintf
    (fun s -> invalid_arg (Printf.sprintf "Serialize: line %d: %s" cur.pos s))
    fmt

let remaining_lines cur = cur.n_lines - cur.pos

let check_count cur ~what ~cap n =
  if n < 0 then reject cur "negative %s count %d" what n;
  if n > cap then reject cur "%s count %d exceeds the cap %d" what n cap

(* One more than the newlines in [s], eight bytes at a time: a word
   without a newline byte is skipped at once, the others are counted
   byte by byte.  On a 22 MB scale-pegasus plan this pass takes 12 ms
   against 37 ms for a plain byte loop (2-vCPU VM, OCaml 5.1.1;
   docs/perf/README.md). *)
let count_lines s =
  let len = String.length s in
  let n = ref 1 and i = ref 0 in
  while !i + 8 <= len do
    let x = Int64.logxor (String.get_int64_le s !i) 0x0a0a0a0a0a0a0a0aL in
    if
      Int64.logand
        (Int64.logand (Int64.sub x 0x0101010101010101L) (Int64.lognot x))
        0x8080808080808080L
      <> 0L
    then
      for j = !i to !i + 7 do
        if String.unsafe_get s j = '\n' then incr n
      done;
    i := !i + 8
  done;
  for j = !i to len - 1 do
    if String.unsafe_get s j = '\n' then incr n
  done;
  !n

let cursor_of_string s =
  { s; n_lines = count_lines s; next_off = 0; pos = 0;
    ws = Array.make 16 0; we = Array.make 16 0; nw = 0 }

(* [String.trim]'s whitespace. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let push_word cur start stop =
  if cur.nw = Array.length cur.ws then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    cur.ws <- grow cur.ws;
    cur.we <- grow cur.we
  end;
  cur.ws.(cur.nw) <- start;
  cur.we.(cur.nw) <- stop;
  cur.nw <- cur.nw + 1

(* Advance to the next non-blank line, trim it and split it into words
   in one scan.  Words are split on [' '] from the first non-blank byte
   to the end of the line; the words past the trimmed end are then
   dropped and the last one cut at it, which leaves exactly the words of
   the [String.trim]med line. *)
let rec next cur =
  if cur.pos >= cur.n_lines then fail cur "unexpected end of input";
  let s = cur.s and len = String.length cur.s in
  let i = ref cur.next_off in
  while
    !i < len
    && (let c = String.unsafe_get s !i in
        c <> '\n' && is_space c)
  do
    incr i
  done;
  let lo = !i in
  cur.nw <- 0;
  while !i < len && String.unsafe_get s !i <> '\n' do
    if String.unsafe_get s !i = ' ' then incr i
    else begin
      let start = !i in
      while
        !i < len
        && (let c = String.unsafe_get s !i in
            c <> ' ' && c <> '\n')
      do
        incr i
      done;
      push_word cur start !i
    end
  done;
  let hi = ref !i in
  while !hi > lo && is_space (String.unsafe_get s (!hi - 1)) do decr hi done;
  while cur.nw > 0 && cur.ws.(cur.nw - 1) >= !hi do cur.nw <- cur.nw - 1 done;
  if cur.nw > 0 && cur.we.(cur.nw - 1) > !hi then cur.we.(cur.nw - 1) <- !hi;
  cur.next_off <- !i + 1;
  cur.pos <- cur.pos + 1;
  if lo = !hi then next cur

let word cur k = String.sub cur.s cur.ws.(k) (cur.we.(k) - cur.ws.(k))

let word_is cur k tag =
  let a = cur.ws.(k) in
  let n = String.length tag in
  cur.we.(k) - a = n
  &&
  let i = ref 0 in
  while !i < n && String.unsafe_get cur.s (a + !i) = String.unsafe_get tag !i do
    incr i
  done;
  !i = n

let float_of_word cur w =
  try float_of_string w with _ -> fail cur "bad float %S" w

let int_of_word cur w =
  try int_of_string w with _ -> fail cur "bad integer %S" w

(* [s.[a .. b-1]] as an int.  Plain decimals of up to 18 digits (no
   overflow possible) are read in place; any other word goes through
   [int_of_string], so the accepted language is [int_of_string]'s. *)
let int_in cur a b =
  let s = cur.s in
  let neg = a < b && String.unsafe_get s a = '-' in
  let i0 = if neg then a + 1 else a in
  let n = ref 0 and plain = ref (b > i0 && b - i0 <= 18) in
  let i = ref i0 in
  while !plain && !i < b do
    let d = Char.code (String.unsafe_get s !i) - 48 in
    if d < 0 || d > 9 then plain := false else n := (!n * 10) + d;
    incr i
  done;
  if !plain then if neg then - !n else !n
  else int_of_word cur (String.sub s a (b - a))

let int_at cur k = int_in cur cur.ws.(k) cur.we.(k)

(* Hex-digit values of lowercase digits; 16 for every other byte. *)
let hex_value =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' -> Char.chr (i - 48)
      | 'a' .. 'f' -> Char.chr (i - 87)
      | _ -> '\016')

let nibble s i =
  Char.code (String.unsafe_get hex_value (Char.code (String.unsafe_get s i)))

(* The value of a canonical ["%h"] word [s.[a .. b-1]] — an optional
   [-], [0x], a leading [0] or [1], at most 13 lowercase fraction
   nibbles, [p] and a signed decimal exponent of at most 4 digits —
   decoded straight into its bit pattern; [nan] for any other word (no
   such word has that value). *)
let canonical_hex s a b =
  let neg = String.unsafe_get s a = '-' in
  let i = if neg then a + 1 else a in
  if
    b - i < 6
    || String.unsafe_get s i <> '0'
    || String.unsafe_get s (i + 1) <> 'x'
  then Float.nan
  else begin
    let lead = Char.code (String.unsafe_get s (i + 2)) - 48 in
    (* The fraction, aligned to the 52 mantissa bits as it is read;
       [shift] goes negative on a 14th nibble or an empty fraction. *)
    let j = ref (i + 3) and frac = ref 0 and shift = ref 52 in
    if String.unsafe_get s !j = '.' then begin
      incr j;
      let d = ref 0 in
      while !j < b && (d := nibble s !j; !d < 16) do
        shift := !shift - 4;
        if !shift >= 0 then frac := !frac lor (!d lsl !shift);
        incr j
      done;
      if !shift = 52 then shift := -1
    end;
    let j = !j in
    let sign = if j + 1 < b then String.unsafe_get s (j + 1) else 'p' in
    let k = if sign = '-' || sign = '+' then j + 2 else j + 1 in
    let canonical =
      ref
        (!shift >= 0 && (lead = 0 || lead = 1) && j < b
        && String.unsafe_get s j = 'p'
        && b - k >= 1 && b - k <= 4)
    and e = ref 0 in
    for q = k to b - 1 do
      let d = Char.code (String.unsafe_get s q) - 48 in
      if d < 0 || d > 9 then canonical := false else e := (!e * 10) + d
    done;
    let e = if sign = '-' then - !e else !e in
    let bits =
      if not !canonical then -1L
      else if lead = 1 && e >= -1022 && e <= 1023 then
        Int64.logor
          (Int64.shift_left (Int64.of_int (e + 1023)) 52)
          (Int64.of_int !frac)
      else if lead = 0 && (!frac = 0 || e = -1022) then Int64.of_int !frac
      else -1L
    in
    if bits = -1L then Float.nan
    else
      Int64.float_of_bits (if neg then Int64.logor bits Int64.min_int else bits)
  end

(* [s.[a .. b-1]] as a float: canonical ["%h"] words in place, any other
   word through [float_of_string] (decimal floats, [_] separators,
   uppercase hex, [nan], [infinity]). *)
let float_at cur k =
  let a = cur.ws.(k) and b = cur.we.(k) in
  let x = canonical_hex cur.s a b in
  if Float.is_nan x then float_of_word cur (String.sub cur.s a (b - a)) else x

(* A [tag] line of exactly [m] floats, decoded left to right. *)
let parse_row cur tag m =
  next cur;
  if not (word_is cur 0 tag) then fail cur "expected %S" tag;
  if cur.nw - 1 <> m then fail cur "%s row arity" tag;
  let row = Array.create_float m in
  for k = 0 to m - 1 do
    row.(k) <- float_at cur (k + 1)
  done;
  row

let parse_instance cur =
  next cur;
  if cur.nw <> 4 || not (word_is cur 0 "instance") then
    fail cur "expected instance header";
  let v = int_at cur 1 and m = int_at cur 2 and e = int_at cur 3 in
  check_count cur ~what:"task" ~cap:max_tasks v;
  check_count cur ~what:"processor" ~cap:max_procs m;
  check_count cur ~what:"edge" ~cap:max_edges e;
  if m = 0 then reject cur "processor count must be positive";
  (* An instance document needs v labels, e edges, m delay rows and
     v exec rows; declaring more than the input can possibly hold is
     rejected here, before any count-sized allocation. *)
  let needed = v + e + m + v in
  if needed > remaining_lines cur then
    reject cur
      "declared counts (v=%d m=%d e=%d) need %d lines but only %d remain"
      v m e needed (remaining_lines cur);
  let b = Dag.Builder.create () in
  for _ = 1 to v do
    next cur;
    if not (word_is cur 0 "label") then fail cur "expected label line";
    let label =
      String.concat " " (List.init (cur.nw - 1) (fun k -> word cur (k + 1)))
    in
    if String.length label > max_label_length then
      reject cur "label length %d exceeds the cap %d"
        (String.length label) max_label_length;
    ignore (Dag.Builder.add_task ~label b)
  done;
  for _ = 1 to e do
    next cur;
    if cur.nw <> 4 || not (word_is cur 0 "edge") then
      fail cur "expected edge line";
    (* Right to left: of several bad words on a line, the error
       names the last one. *)
    let volume = float_at cur 3 in
    let dst = int_at cur 2 in
    let src = int_at cur 1 in
    Dag.Builder.add_edge b ~src ~dst ~volume
  done;
  let dag = Dag.Builder.build b in
  let delay = Array.make m [||] in
  for k = 0 to m - 1 do
    delay.(k) <- parse_row cur "delay" m
  done;
  let platform = Platform.create ~delay in
  let exec = Array.make v [||] in
  for t = 0 to v - 1 do
    exec.(t) <- parse_row cur "exec" m
  done;
  Instance.create ~dag ~platform ~exec

let check_magic cur =
  next cur;
  if not (cur.nw = 2 && word_is cur 0 "ftsched" && word_is cur 1 "v1") then
    fail cur "bad magic (expected \"ftsched v1\")"

let instance_of_string s =
  let cur = cursor_of_string s in
  check_magic cur;
  parse_instance cur

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)

let schedule_to_string sched =
  let inst = Schedule.instance sched in
  let copies = Schedule.n_replicas sched in
  let extra =
    (112 * copies * Instance.n_tasks inst)
    +
    if Comm_plan.is_all_to_all (Schedule.comm sched) then 0
    else (12 + (5 * copies)) * Dag.n_edges (Instance.dag inst)
  in
  let s = sink_for ~extra inst in
  add_string s "ftsched v1\n";
  add_instance s inst;
  add_string s "schedule ";
  add_int s (Schedule.eps sched);
  add_char s '\n';
  for task = 0 to Instance.n_tasks inst - 1 do
    Array.iter
      (fun (r : Schedule.replica) ->
        add_string s "replica ";
        add_int s r.task;
        add_char s ' ';
        add_int s r.index;
        add_char s ' ';
        add_int s r.proc;
        add_char s ' ';
        add_float s r.start;
        add_char s ' ';
        add_float s r.finish;
        add_char s ' ';
        add_float s r.pess_start;
        add_char s ' ';
        add_float s r.pess_finish;
        add_char s '\n')
      (Schedule.replicas sched task)
  done;
  let plan = Schedule.comm sched and eps = Schedule.eps sched in
  if Comm_plan.is_all_to_all plan then add_string s "comm all\n"
  else begin
    add_string s "comm selected\n";
    let ps = Array.make (Comm_plan.widest plan ~eps) 0 in
    let pd = Array.make (Array.length ps) 0 in
    for e = 0 to Dag.n_edges (Instance.dag inst) - 1 do
      add_string s "pairs ";
      add_int s e;
      add_char s ' ';
      for i = 0 to Comm_plan.pairs plan ~eps e ~srcs:ps ~dsts:pd - 1 do
        if i > 0 then add_char s ' ';
        add_int s ps.(i);
        add_char s ':';
        add_int s pd.(i)
      done;
      add_char s '\n'
    done
  end;
  contents s

(* The [src:dst] pairs of the current [pairs] line, from word 2 on, as
   the builder's current row. *)
let parse_pairs cur ~eps rows =
  for k = 2 to cur.nw - 1 do
    let a = cur.ws.(k) and b = cur.we.(k) in
    let colon = ref (-1) and colons = ref 0 in
    for i = a to b - 1 do
      if String.unsafe_get cur.s i = ':' then begin
        colon := i;
        incr colons
      end
    done;
    if !colons <> 1 then fail cur "bad pair %S" (word cur k);
    let src_replica = int_in cur a !colon in
    let dst_replica = int_in cur (!colon + 1) b in
    if src_replica < 0 || src_replica > eps || dst_replica < 0 || dst_replica > eps
    then fail cur "pair %S replica out of range (eps=%d)" (word cur k) eps;
    Comm_plan.push rows ~src:src_replica ~dst:dst_replica
  done

let schedule_of_string s =
  let cur = cursor_of_string s in
  check_magic cur;
  let inst = parse_instance cur in
  let v = Instance.n_tasks inst in
  let m = Instance.n_procs inst in
  next cur;
  if cur.nw <> 2 || not (word_is cur 0 "schedule") then
    fail cur "expected schedule header";
  let eps = int_at cur 1 in
  if eps < 0 || eps >= m then fail cur "eps %d out of range (m=%d)" eps m;
  let replicas = Array.make v [||] in
  for task = 0 to v - 1 do
    replicas.(task) <- Array.make (eps + 1) None
  done;
  for _ = 1 to v * (eps + 1) do
    next cur;
    if cur.nw <> 8 || not (word_is cur 0 "replica") then
      fail cur "expected replica line";
    let task = int_at cur 1 in
    let index = int_at cur 2 in
    if task < 0 || task >= v || index < 0 || index > eps then
      fail cur "replica out of range";
    let proc = int_at cur 3 in
    (* Validated here so that a corrupt file fails at its own line
       instead of crashing far away inside [Schedule.create] or an
       array access in a consumer. *)
    if proc < 0 || proc >= m then
      fail cur "replica processor %d out of range (m=%d)" proc m;
    (* The times right to left, too. *)
    let pess_finish = float_at cur 7 in
    let pess_start = float_at cur 6 in
    let finish = float_at cur 5 in
    let start = float_at cur 4 in
    replicas.(task).(index) <-
      Some { Schedule.task; index; proc; start; finish; pess_start; pess_finish }
  done;
  let replicas =
    Array.map
      (Array.map (function
        | Some r -> r
        | None -> failwith "missing replica in schedule file"))
      replicas
  in
  next cur;
  let comm_is kind = cur.nw = 2 && word_is cur 0 "comm" && word_is cur 1 kind in
  let comm =
    if comm_is "all" then Comm_plan.all_to_all
    else if comm_is "selected" then begin
        let e = Dag.n_edges (Instance.dag inst) in
        let rows = Comm_plan.builder () in
        Comm_plan.clear rows ~n_edges:e;
        for _ = 1 to e do
          next cur;
          if cur.nw < 2 || not (word_is cur 0 "pairs") then
            fail cur "expected pairs line";
          let idx = int_at cur 1 in
          if idx < 0 || idx >= e then fail cur "pairs edge out of range";
          (try Comm_plan.start_row rows idx
           with Invalid_argument _ -> fail cur "pairs edge %d repeated" idx);
          parse_pairs cur ~eps rows
        done;
        Comm_plan.build rows
    end
    else fail cur "expected comm line"
  in
  Schedule.create ~instance:inst ~eps ~replicas ~comm

let save_schedule sched ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (schedule_to_string sched))

let load_schedule ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> schedule_of_string (really_input_string ic (in_channel_length ic)))

module Private = struct
  let hex_float = hex_float
end

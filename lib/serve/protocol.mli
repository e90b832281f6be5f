(** Wire protocol of the [ftsched serve] daemon.

    Length-prefixed binary framing over a Unix or TCP socket.  Every
    frame is an 8-byte header followed by a payload:

    {v
      bytes 0..3   magic "FTSB"
      bytes 4..7   payload length, unsigned 32-bit big-endian
      bytes 8..    payload (UTF-8 text)
    v}

    The payload's first line is the request (or response) line; the
    rest, when present, is a {!Ftsched_schedule.Serialize} document.
    Request lines:

    {v
      schedule <algo> <eps> <seed> <budget>     body: instance document
      simulate <crashes> <seed> <budget>        body: schedule document
      stream <seed> <duration> <m> <budget>     no body
      health                                    no body
      metrics                                   no body
    v}

    [<algo>] is any name of {!Ftsched_core.Schedulers.all} (the same
    names as the CLI's [--algo]); any other name is {!Unsupported}.
    [budget] is the client deadline in seconds, relative to the
    server's acceptance of the frame ([inf] = none).  Responses are
    either [ok <kind>] followed by the result body, or
    [error <code>] followed by a human-readable detail line; the codes
    are the typed errors below.

    Robustness rules, in order: the header is validated before any
    payload byte is buffered ({!Bad_magic}, {!Frame_too_large} fire on
    the declared length, {e not} after allocation); payloads above
    [max_frame] never accumulate; request lines are parsed with typed
    failures instead of exceptions. *)

val magic : string
(** ["FTSB"]. *)

val header_size : int
(** 8. *)

val default_max_frame : int
(** Default payload cap, 8 MiB. *)

(** {1 Typed protocol errors} *)

type error =
  | Bad_magic  (** header does not start with {!magic} *)
  | Frame_too_large of { declared : int; limit : int }
      (** declared payload length above the negotiated cap — detected
          from the header, before buffering *)
  | Malformed of string
      (** unparseable request line, out-of-range argument, or a body
          document rejected by the hardened {!Ftsched_schedule.Serialize}
          parser *)
  | Unsupported of string  (** unknown request tag or scheduler name *)
  | Overloaded of { queued : int; capacity : int }
      (** the bounded work queue is full *)
  | Deadline_infeasible of { needed : float; budget : float }
      (** admission estimate: the queue cannot meet the client budget *)
  | Deadline_expired of { elapsed : float; budget : float }
      (** the budget ran out before (or while) the request executed *)
  | Draining  (** server shutting down; queued request abandoned *)
  | Internal of string  (** handler raised; the server survives *)

val error_code : error -> string
(** Stable wire code: ["bad-magic"], ["too-large"], ["malformed"],
    ["unsupported"], ["overloaded"], ["deadline-infeasible"],
    ["deadline-expired"], ["draining"], ["internal"]. *)

val pp_error : Format.formatter -> error -> unit

(** {1 Framing} *)

val encode_frame : string -> string
(** [encode_frame payload] is the header plus payload, ready to write. *)

type reader
(** Incremental frame decoder for one connection.  Feed raw bytes as
    they arrive; frames come out as soon as they are complete.  Buffers
    at most [max_frame + ] one read chunk. *)

val create_reader : ?max_frame:int -> unit -> reader

val reader_feed : reader -> bytes -> int -> unit
(** [reader_feed r buf n] appends the first [n] bytes of [buf]. *)

val reader_next : reader -> [ `Frame of string | `Error of error | `More ]
(** [`Error] poisons the reader: the connection must be closed (after
    optionally sending the error response).  Header errors are raised
    from the declared length alone — a 4 GiB declaration costs 8 bytes
    of buffering, not 4 GiB. *)

(** {1 Requests} *)

type request =
  | Schedule of { algo : string; eps : int; seed : int; body : string }
  | Simulate of { crashes : int; seed : int; body : string }
  | Stream of { seed : int; duration : float; m : int }
  | Health
  | Metrics

val is_work : request -> bool
(** Work requests go through admission and the Domain pool; [Health] /
    [Metrics] are answered inline. *)

val parse_request : string -> (request * float, error) result
(** Parse a payload into a request and its client budget (seconds,
    [infinity] = none).  Typed {!Malformed} / {!Unsupported} on
    anything else — never an exception. *)

val request_line : request -> budget:float -> string
(** Re-render the request line (client side). *)

(** {1 Responses} *)

val ok_response : kind:string -> string -> string
(** [ok_response ~kind body] is ["ok <kind>\n<body>"] (no trailing
    newline added when [body] is empty). *)

val error_response : error -> string
(** ["error <code>\n<detail>"]. *)

val classify_response :
  string -> [ `Ok of string * string | `Error of string * string | `Junk ]
(** Client side: [`Ok (kind, body)], [`Error (code, detail)], or
    [`Junk] for anything that is neither. *)

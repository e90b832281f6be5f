(** Plain-text and CSV rendering of experiment tables.

    The experiment harness prints the same rows/series the paper reports;
    this module owns the formatting so that every figure driver emits
    uniformly aligned tables and machine-readable CSV. *)

type t
(** A table under construction: a header row plus data rows of equal
    arity. *)

val create : columns:string list -> t
(** [create ~columns] starts a table with the given header. *)

val add_row : t -> string list -> unit
(** Appends a row.  Raises [Invalid_argument] if the arity differs from the
    header. *)

val add_float_row : ?fmt:(float -> string) -> t -> string -> float list -> t
(** [add_float_row t label xs] appends [label :: map fmt xs]; default format
    is ["%.3f"].  Returns [t] for chaining. *)

val row_count : t -> int

val to_string : t -> string
(** Aligned, boxed plain-text rendering. *)

val to_csv : t -> string
(** RFC-4180-ish CSV (quotes fields containing commas/quotes/newlines). *)

val print : t -> unit
(** [to_string] to stdout, followed by a newline. *)

val save_csv : t -> path:string -> unit

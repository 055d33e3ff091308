(** Growable time-series recorder used by simulation probes.

    Storage grows in fixed-size chunks behind a pointer directory:
    appending a sample never copies previously recorded data (only the
    directory of chunk pointers doubles), so long batch runs — many
    scenarios re-recorded through one engine — avoid the repeated
    large-array copies of a doubling buffer.  Each chunk is flat (its
    times, and its samples' components back to back), so {!record}
    copies the sample in place and allocates only when it opens a new
    chunk; {!clear} keeps the chunks for reuse.  Rows handed out by
    {!values}, {!last} and {!iter} are fresh copies: mutating them, or
    the array passed to {!record}, leaves the trace unchanged. *)

type t

val create : width:int -> t
(** A recorder for vector samples of the given width. *)

val width : t -> int
val length : t -> int

val record : t -> float -> float array -> unit
(** Appends a sample.  Raises [Invalid_argument] on width mismatch.
    A sample at exactly the same time as the previous one replaces it
    (the engine records once per major step; an instant with several
    event deliveries keeps only the final values). *)

val times : t -> float array
val values : t -> float array array
(** [values tr] has one row per sample. *)

val component : t -> int -> Control.Metrics.trace
(** Scalar metric trace of one vector component. *)

val last : t -> (float * float array) option

val clear : t -> unit

val iter : (float -> float array -> unit) -> t -> unit

val to_csv : ?labels:string list -> t -> string
(** Renders the trace as CSV with a header row ([time,y0,y1,…] or the
    given column labels) — for plotting outside OCaml.  Raises
    [Invalid_argument] when the label count does not match the
    width. *)

val to_csv_file : ?labels:string list -> t -> string -> unit
(** Writes {!to_csv} to a path. *)

(** SynDEx-style architecture graphs: operators (processors, or
    hardware accelerators treated as single-operation processors)
    connected by communication media (shared buses or point-to-point
    links). *)

type operator_id = private int
type medium_id = private int

type medium_kind =
  | Bus  (** shared broadcast medium (e.g. CAN): one transfer at a time *)
  | Point_to_point  (** dedicated link between exactly two operators *)

type t

val create : name:string -> t
val name : t -> string

val add_operator : t -> name:string -> operator_id
(** Adds a processor.  Names must be unique. *)

val add_medium :
  t ->
  name:string ->
  kind:medium_kind ->
  ?latency:float ->
  time_per_word:float ->
  operator_id list ->
  medium_id
(** Adds a medium connecting the given operators.  Transferring a
    message of [w] words takes [latency + w·time_per_word]
    (default latency [0.]).  A point-to-point medium must connect
    exactly two distinct operators; a bus at least two, and a bus must
    have [time_per_word > 0] — a zero word time would give it infinite
    capacity, which the shared-bus analyses (media utilization,
    arbitration) cannot price.  Raises [Invalid_argument] with an
    ["[ARCH002]"] prefix on violated timing/topology constraints. *)

val operator_count : t -> int
val medium_count : t -> int
val operators : t -> operator_id list
val media : t -> medium_id list
val operator_name : t -> operator_id -> string
val medium_name : t -> medium_id -> string
val medium_kind : t -> medium_id -> medium_kind
val find_operator : t -> string -> operator_id option
val find_medium : t -> string -> medium_id option

val medium_endpoints : t -> medium_id -> operator_id list

val comm_duration : t -> medium_id -> words:int -> float
(** Transfer duration of a [words]-scalar message. *)

val connecting : t -> operator_id -> operator_id -> medium_id list
(** All media joining two distinct operators directly (possibly
    empty). *)

val routes :
  ?max_hops:int ->
  ?max_routes:int ->
  t ->
  operator_id ->
  operator_id ->
  (medium_id * operator_id) list list
(** Simple routes from the first operator to the second: each route is
    the hop list [(medium, operator reached)], ending at the
    destination, never passing through it earlier.  At most
    [max_routes] (default 8) routes of at most [max_hops] (default 3)
    hops.  Gateways — operators relaying between two media — appear as
    intermediate hop endpoints.  Raises [Invalid_argument] on
    identical endpoints.

    Ordering contract: routes come in nondecreasing hop count, in the
    order a breadth-first search over simple paths finds them —
    within one hop count, lexicographic by (medium id, operator id)
    hop after hop — and the [max_routes] cap keeps the first ones in
    that order.  So every route with fewer hops than a returned one is
    returned too, ahead of it.  {!Adequation.route_table} relies on
    this to drop dominated routes exactly. *)

val validate : t -> unit
(** Checks there is at least one operator and that the operator graph
    induced by media is connected when more than one operator
    exists. *)

(** {2 Ready-made topologies} *)

val single : ?proc_name:string -> unit -> t
(** One processor, no media. *)

val bus_topology :
  ?name:string ->
  ?latency:float ->
  time_per_word:float ->
  string list ->
  t
(** Processors named by the list, all on one shared bus — the typical
    automotive CAN architecture of the paper's target domain.  Same
    constraints as {!add_medium} with [~kind:Bus]: at least two
    processors and [time_per_word > 0]. *)

val fully_connected :
  ?name:string -> ?latency:float -> time_per_word:float -> string list -> t
(** Point-to-point link between every pair of processors. *)

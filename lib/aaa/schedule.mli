(** Timed schedules — the output of the adequation.

    A schedule assigns every operation a (operator, start, WCET)
    slot and every inter-operator dependency a (medium, start,
    duration) communication slot, such that on each operator and each
    medium the slots form a total order (the off-line non-preemptive
    schedule of paper §3.2).  All times are offsets from the start of
    one iteration; the schedule repeats every {!Algorithm.period}. *)

type comp_slot = {
  cs_op : Algorithm.op_id;
  cs_operator : Architecture.operator_id;
  cs_start : float;
  cs_duration : float;  (** WCET used by the adequation *)
}

type comm_slot = {
  cm_src : Algorithm.op_id * int;  (** producing (operation, output) *)
  cm_dst : Algorithm.op_id * int;  (** consuming (operation, input);
      port [-1] marks a conditioning-variable broadcast *)
  cm_medium : Architecture.medium_id;
  cm_from : Architecture.operator_id;
  cm_to : Architecture.operator_id;
  cm_hop : int;
      (** position in the transfer's route: [0] leaves the producer's
          operator; the last hop reaches the consumer's.  Direct
          transfers have a single hop [0]. *)
  cm_start : float;
  cm_duration : float;
  cm_read : float;
      (** planned read offset of the consumer: the instant the
          time-triggered executive samples the transferred value.
          Defaults to [cm_start +. cm_duration] (read at completion);
          {!insert_slack} moves it later to reserve a retransmission
          window.  Never earlier than completion (rule SCHED012). *)
}

val read_offset : comm_slot -> float
(** [cm_read], the planned read offset. *)

val retry_slack : comm_slot -> float
(** [cm_read - (cm_start + cm_duration)]: the slack reserved between a
    transfer's completion and its planned read. *)

val slot_key : comm_slot -> int * int * int * int * int
(** The identity of one hop of a transfer within one iteration:
    source (operation, port), destination (operation, port) and hop.
    The executives key their per-transfer state by it. *)

type t = {
  algorithm : Algorithm.t;
  architecture : Architecture.t;
  comp : comp_slot list;  (** ascending start time *)
  comm : comm_slot list;  (** ascending start time *)
  makespan : float;
}

val make :
  algorithm:Algorithm.t ->
  architecture:Architecture.t ->
  comp:comp_slot list ->
  comm:comm_slot list ->
  t
(** Sorts the slots, computes the makespan and checks well-formedness:
    non-negative slot times, no overlap on an operator or medium, every
    operation scheduled exactly once, precedence respected (a consumer
    starts no earlier than its producers' data arrives).  Raises
    [Invalid_argument] if violated; the message names the offending
    operations, operators and intervals and carries a ["[SCHEDnnn]"]
    rule identifier from the [Verify.Rules] catalogue. *)

val operator_of : t -> Algorithm.op_id -> Architecture.operator_id
val slot_of : t -> Algorithm.op_id -> comp_slot

val on_operator : t -> Architecture.operator_id -> comp_slot list
(** Slots of one operator in execution order. *)

val on_medium : t -> Architecture.medium_id -> comm_slot list

val transfer_chain :
  t ->
  (Algorithm.op_id * int) * (Algorithm.op_id * int) ->
  from_operator:Architecture.operator_id ->
  to_operator:Architecture.operator_id ->
  comm_slot list
(** The hop chain carrying one dependency between two operators, in
    hop order; checks the chain is contiguous and well-timed.  Raises
    [Invalid_argument] when absent or malformed. *)

val sensor_completions : t -> (Algorithm.op_id * float) list
(** For each sensor operation [j], the static completion offset of its
    slot — the WCET-based sampling instant [I_j] within the period
    (so the static sampling latency of paper eq. (1) is this value). *)

val actuator_completions : t -> (Algorithm.op_id * float) list
(** Same for actuators — the static actuation instants [O_j]
    (paper eq. (2)). *)

val fits_period : t -> bool
(** Whether [makespan <= period]: the real-time constraint of the
    implementation. *)

val insert_slack : slack_of:(comm_slot -> float) -> t -> t
(** Schedule-time slack insertion (closing the retransmission/read gap
    of the time-triggered executive): for every transfer [c], move its
    planned read offset to [completion +. slack_of c] and retime all
    downstream slots — consumers start no earlier than their inputs'
    read offsets, later transfers on the same medium (and later hops of
    the same route) start no earlier than the previous read offset, so
    the reserved window stays free for retries.  Start times only move
    later; the total order on every operator and medium is preserved.
    The makespan may grow — check {!fits_period} (or Verify's REC
    rules) afterwards.  Raises [Invalid_argument] with a rule id if the
    retimed schedule is infeasible. *)

val pp : Format.formatter -> t -> unit
(** Human-readable listing, one line per slot. *)

module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Sched = Aaa.Schedule
module Cg = Aaa.Codegen

exception Deadlock of string

type config = {
  iterations : int;
  law : Timing_law.t;
  comm_jitter_frac : float;
  bcet_frac : float;
  durations : Aaa.Durations.t option;
  overrun_prob : float;
  overrun_factor : float;
  seed : int;
  condition : iteration:int -> var:string -> int;
  injection : Injection.t;
  recovery : Recovery.policy;
  bus_models : (string * Media.Bus.config) list;
}

let default_config =
  {
    iterations = 100;
    law = Timing_law.Uniform;
    comm_jitter_frac = 0.;
    bcet_frac = 0.5;
    durations = None;
    overrun_prob = 0.;
    overrun_factor = 1.5;
    seed = 42;
    condition = (fun ~iteration:_ ~var:_ -> 0);
    injection = Injection.none;
    recovery = Recovery.disabled;
    bus_models = [];
  }

type op_exec = {
  oe_iteration : int;
  oe_op : Alg.op_id;
  oe_operator : Arch.operator_id;
  oe_start : float;
  oe_finish : float;
  oe_skipped : bool;
  oe_failed : bool;
}

type comm_exec = {
  ce_iteration : int;
  ce_slot : Sched.comm_slot;
  ce_start : float;
  ce_finish : float;
}

type trace = {
  executive : Cg.t;
  period : float;
  iterations : int;
  ops : op_exec list;
  comms : comm_exec list;
  iteration_end : float array;
  overruns : int;
  lost_transfers : int;
  stale_reads : int;
  retransmissions : int;
  recovered_transfers : int;
  recovery_events : Recovery.event list;
  detection_latency : float option;
  switched_at : int option;
  bus_log : (string * Media.Bus.completion list) list;
  continuation : trace option;
}

(* A run resolves the executive once, before its first step.  Every
   transfer hop gets a dense slot number, so the per-iteration tables
   are flat arrays indexed by [slot * iterations + k].  Operator
   programs become instructions that carry what a step needs (an
   [Exec]'s WCET and BCET, a [Send]'s or [Recv]'s slot); medium
   programs become transfers that carry their own slot, the slot they
   wait on, their bus identifier and their medium's name. *)

type instr =
  | Wait_period
  | Exec of {
      op : Alg.op_id;
      name : string;
      cond : Alg.condition option;
      wcet : float;
      bcet : float;
    }
  | Send of int
  | Recv of { slot : int; consumer : string }

type transfer = {
  tr_comm : Sched.comm_slot;
  tr_slot : int;
  tr_prev : int;
      (* hop 0 waits on its own post, a later hop on the previous hop's
         completion; a stale payload is inherited from the same slot *)
  tr_ident : int;
  tr_medium : string;
  tr_bus : Media.Bus.t option;
}

type operator_state = {
  os_id : Arch.operator_id;
  os_name : string;
  os_program : instr array;
  mutable os_pc : int;
  mutable os_iter : int;
  mutable os_time : float;
}

type medium_state = {
  ms_transfers : transfer array;
  mutable ms_index : int;
  mutable ms_iter : int;
  mutable ms_time : float;
}

let run_single ~(config : config) exe =
  if config.iterations <= 0 then invalid_arg "Machine.run: non-positive iteration count";
  let sched = exe.Cg.schedule in
  let alg = sched.Sched.algorithm in
  let arch = sched.Sched.architecture in
  let period = Alg.period alg in
  let iterations = config.iterations in
  let rng = Numerics.Rng.create config.seed in
  (* shared-bus models: one fresh Media.Bus.t per modeled medium per
     run (each phase of a failover run gets its own, in its own frame) *)
  let buses =
    if config.bus_models = [] then [||]
    else begin
      let arr = Array.make (Arch.medium_count arch) None in
      List.iter
        (fun (bname, bcfg) ->
          match Arch.find_medium arch bname with
          | None ->
              invalid_arg
                (Printf.sprintf
                   "[MEDIA004] Machine.run: bus model %S names no medium of architecture %S"
                   bname (Arch.name arch))
          | Some mid ->
              if Arch.medium_kind arch mid <> Arch.Bus then
                invalid_arg
                  (Printf.sprintf
                     "[MEDIA004] Machine.run: medium %S is not a shared bus"
                     bname);
              arr.((mid :> int)) <- Some (Media.Bus.create bcfg))
        config.bus_models;
      arr
    end
  in
  let have_bus = Array.length buses > 0 in
  let slots = Hashtbl.create 64 in
  let slot_of key =
    match Hashtbl.find_opt slots key with
    | Some i -> i
    | None ->
        let i = Hashtbl.length slots in
        Hashtbl.add slots key i;
        i
  in
  let resolve_instr operator = function
    | Cg.Wait_period -> Wait_period
    | Cg.Exec op ->
        (* the WCET is the planned slot length; the BCET comes from the
           durations table when provided, else from [bcet_frac] *)
        let wcet =
          match List.find_opt (fun s -> s.Sched.cs_op = op) sched.Sched.comp with
          | Some s -> s.Sched.cs_duration
          | None -> 0.
        in
        let bcet =
          let from_table =
            Option.bind config.durations (fun table ->
                Aaa.Durations.bcet table ~op:(Alg.op_name alg op)
                  ~operator:(Arch.operator_name arch operator))
          in
          match from_table with
          | Some b -> Float.min b wcet
          | None -> config.bcet_frac *. wcet
        in
        Exec { op; name = Alg.op_name alg op; cond = Alg.op_cond alg op; wcet; bcet }
    | Cg.Send c -> Send (slot_of (Sched.slot_key c))
    | Cg.Recv c ->
        Recv
          { slot = slot_of (Sched.slot_key c); consumer = Alg.op_name alg (fst c.Sched.cm_dst) }
  in
  let resolve_transfer c =
    let ((a, b, d, e, hop) as key) = Sched.slot_key c in
    let slot = slot_of key in
    {
      tr_comm = c;
      tr_slot = slot;
      tr_prev = (if hop = 0 then slot else slot_of (a, b, d, e, hop - 1));
      tr_ident = Media.Bus.slot_identifier c;
      tr_medium = Arch.medium_name arch c.Sched.cm_medium;
      tr_bus = (if have_bus then buses.((c.Sched.cm_medium :> int)) else None);
    }
  in
  let operators =
    List.map
      (fun (operator, body) ->
        {
          os_id = operator;
          os_name = Arch.operator_name arch operator;
          os_program = Array.of_list (List.map (resolve_instr operator) body);
          os_pc = 0;
          os_iter = 0;
          os_time = 0.;
        })
      exe.Cg.programs
  in
  let media =
    List.map
      (fun (_, transfers) ->
        {
          ms_transfers = Array.of_list (List.map resolve_transfer transfers);
          ms_index = 0;
          ms_iter = 0;
          ms_time = 0.;
        })
      exe.Cg.media_programs
  in
  let cells = Hashtbl.length slots * iterations in
  let posted = Array.make cells Float.nan in
  let finished = Array.make cells Float.nan in
  (* per hop instance: the payload carried is stale (lost somewhere
     upstream); the slot itself always fires, so injected faults never
     block the executive *)
  let lost = Array.make cells false in
  let ops_log = ref [] in
  let comms_log = ref [] in
  let inj = config.injection in
  let have_inj = not (Injection.is_none inj) in
  let pol = config.recovery in
  let retrans_on = have_inj && Recovery.retransmission_enabled pol in
  let lost_transfers = ref 0 and stale_reads = ref 0 in
  let retransmissions = ref 0 and recovered_transfers = ref 0 in
  let events = ref [] in
  (* retransmissions already spent, per medium and iteration *)
  let retry_used =
    Array.make (if retrans_on then Arch.medium_count arch * iterations else 0) 0
  in
  let mark_lost cell =
    if not lost.(cell) then begin
      lost.(cell) <- true;
      incr lost_transfers
    end
  in
  let operator_dead os =
    have_inj && inj.Injection.operator_failed ~operator:os.os_name ~time:os.os_time
  in
  let sample_exec_duration ~wcet ~bcet =
    let nominal = Timing_law.sample config.law rng ~bcet ~wcet in
    if config.overrun_prob > 0. && Numerics.Rng.float rng 1. < config.overrun_prob then
      nominal *. config.overrun_factor
    else nominal
  in
  let sample_comm_duration planned =
    if config.comm_jitter_frac <= 0. then planned
    else
      let f = Float.min 1. config.comm_jitter_frac in
      if planned <= 0. then planned
      else Numerics.Rng.uniform rng ((1. -. f) *. planned) planned
  in
  (* one attempt to advance an operator; returns true on progress *)
  let step_operator os =
    if os.os_iter >= iterations then false
    else
      match os.os_program.(os.os_pc) with
      | Wait_period ->
          os.os_time <- Float.max os.os_time (float_of_int os.os_iter *. period);
          os.os_pc <- os.os_pc + 1;
          true
      | Exec { op; name; cond; wcet; bcet } ->
          let skipped =
            match cond with
            | None -> false
            | Some { Alg.var; value } -> config.condition ~iteration:os.os_iter ~var <> value
          in
          let failed = (not skipped) && operator_dead os in
          let start = os.os_time in
          let finish =
            if skipped || failed then start
            else begin
              let d = sample_exec_duration ~wcet ~bcet in
              match
                if have_inj then inj.Injection.overrun ~iteration:os.os_iter ~op:name else None
              with
              | Some factor -> start +. (d *. factor)
              | None -> start +. d
            end
          in
          os.os_time <- finish;
          ops_log :=
            {
              oe_iteration = os.os_iter;
              oe_op = op;
              oe_operator = os.os_id;
              oe_start = start;
              oe_finish = finish;
              oe_skipped = skipped;
              oe_failed = failed;
            }
            :: !ops_log;
          os.os_pc <- os.os_pc + 1;
          true
      | Send slot ->
          let cell = (slot * iterations) + os.os_iter in
          posted.(cell) <- os.os_time;
          (* a dead producer posts instantly, but the value it posts is
             the previous iteration's (its outputs are frozen) *)
          if operator_dead os then mark_lost cell;
          os.os_pc <- os.os_pc + 1;
          true
      | Recv { slot; consumer } ->
          let cell = (slot * iterations) + os.os_iter in
          let t = finished.(cell) in
          if Float.is_nan t then false
          else begin
            os.os_time <- Float.max os.os_time t;
            if (have_inj || have_bus) && lost.(cell) then begin
              incr stale_reads;
              if pol.Recovery.freshness_watchdog then
                events :=
                  Recovery.Stale_detected
                    { time = os.os_time; iteration = os.os_iter; op = consumer }
                  :: !events
            end;
            os.os_pc <- os.os_pc + 1;
            true
          end
  in
  let wrap_operator os =
    if os.os_iter < iterations && os.os_pc >= Array.length os.os_program then begin
      os.os_iter <- os.os_iter + 1;
      os.os_pc <- 0
    end
  in
  let step_medium ms =
    if ms.ms_iter >= iterations || Array.length ms.ms_transfers = 0 then false
    else begin
      let tr = ms.ms_transfers.(ms.ms_index) in
      let c = tr.tr_comm in
      let k = ms.ms_iter in
      let cell = (tr.tr_slot * iterations) + k in
      let prev_cell = (tr.tr_prev * iterations) + k in
      (* hop 0 waits for the producer's post; later hops wait for the
         previous hop's completion *)
      let t_posted = (if c.Sched.cm_hop = 0 then posted else finished).(prev_cell) in
      if Float.is_nan t_posted then false
      else begin
        (* with a bus model attached, the transfer becomes a frame
           arbitrating against the bus's other traffic; without one,
           the fixed-duration path below is bit-for-bit the original *)
        let start, finish0, bus_dropped =
          match tr.tr_bus with
          | None ->
              let start = Float.max ms.ms_time t_posted in
              (start, start +. sample_comm_duration c.Sched.cm_duration, false)
          | Some b ->
              let release = Float.max ms.ms_time t_posted in
              let node = (c.Sched.cm_from :> int) in
              let duration = sample_comm_duration c.Sched.cm_duration in
              if Media.Bus.node_off b ~node ~time:release then
                (* a bus-off interface posts nothing: the slot still
                   elapses (no bus occupancy) so the Recv unblocks *)
                (release, release +. duration, true)
              else
                let comp = Media.Bus.transmit b ~ident:tr.tr_ident ~node ~release ~duration in
                ( comp.Media.Bus.c_start,
                  comp.Media.Bus.c_finish,
                  comp.Media.Bus.c_dropped )
        in
        let finish = ref finish0 in
        if bus_dropped then mark_lost cell;
        if have_inj || have_bus then begin
          let dropped =
            have_inj
            && (inj.Injection.medium_down ~medium:tr.tr_medium ~time:start
               || inj.Injection.transfer_lost ~iteration:k ~slot:c)
          in
          if lost.(prev_cell) then
            (* stale at the source (or already dropped by the bus): a
               retransmission would resend the same stale payload, so
               the mark just propagates *)
            lost.(cell) <- true
          else if dropped then begin
            (* bounded retransmission with exponential backoff; every
               retry extends the slot, consuming real medium time *)
            let delivered = ref false in
            let attempts = ref 0 in
            if retrans_on then begin
              let mcell = ((c.Sched.cm_medium :> int) * iterations) + k in
              let used = ref retry_used.(mcell) in
              while
                (not !delivered)
                && !attempts < pol.Recovery.max_retries
                && !used < pol.Recovery.retry_budget
              do
                incr attempts;
                incr used;
                incr retransmissions;
                let retry_start =
                  !finish +. Recovery.backoff_delay pol ~attempt:!attempts
                in
                (* a retransmission re-arbitrates like any other frame
                   when a bus model is attached *)
                let retry_bus_dropped =
                  match tr.tr_bus with
                  | None ->
                      finish :=
                        retry_start +. sample_comm_duration c.Sched.cm_duration;
                      false
                  | Some b ->
                      let comp =
                        Media.Bus.transmit b ~ident:tr.tr_ident
                          ~node:(c.Sched.cm_from :> int)
                          ~release:retry_start
                          ~duration:(sample_comm_duration c.Sched.cm_duration)
                      in
                      finish := comp.Media.Bus.c_finish;
                      comp.Media.Bus.c_dropped
                in
                delivered :=
                  not
                    (retry_bus_dropped
                    || inj.Injection.medium_down ~medium:tr.tr_medium
                         ~time:retry_start
                    || inj.Injection.retry_lost ~attempt:!attempts
                         ~iteration:k ~slot:c)
              done;
              retry_used.(mcell) <- !used;
              events :=
                (if !delivered then
                   Recovery.Transfer_recovered
                     {
                       time = !finish;
                       iteration = k;
                       medium = tr.tr_medium;
                       attempts = !attempts;
                     }
                 else
                   Recovery.Retries_exhausted
                     {
                       time = !finish;
                       iteration = k;
                       medium = tr.tr_medium;
                       attempts = !attempts;
                     })
                :: !events
            end;
            if !delivered then incr recovered_transfers
            else begin
              lost.(cell) <- true;
              incr lost_transfers
            end
          end
        end;
        finished.(cell) <- !finish;
        ms.ms_time <- !finish;
        comms_log :=
          { ce_iteration = k; ce_slot = c; ce_start = start; ce_finish = !finish }
          :: !comms_log;
        if ms.ms_index + 1 >= Array.length ms.ms_transfers then begin
          ms.ms_index <- 0;
          ms.ms_iter <- k + 1
        end
        else ms.ms_index <- ms.ms_index + 1;
        true
      end
    end
  in
  let all_done () =
    List.for_all (fun os -> os.os_iter >= iterations) operators
    && List.for_all
         (fun ms -> ms.ms_iter >= iterations || Array.length ms.ms_transfers = 0)
         media
  in
  let describe_blocked () =
    let operator_desc =
      List.filter_map
        (fun os ->
          if os.os_iter >= iterations then None
          else
            Some
              (Printf.sprintf "%s blocked at pc=%d (iteration %d)" os.os_name os.os_pc
                 os.os_iter))
        operators
    in
    String.concat "; " operator_desc
  in
  let rec drive () =
    if not (all_done ()) then begin
      let progress = ref false in
      List.iter
        (fun os ->
          (* advance greedily while possible to keep the loop cheap *)
          while step_operator os do
            progress := true;
            wrap_operator os
          done)
        operators;
      List.iter (fun ms -> while step_medium ms do progress := true done) media;
      if not !progress then
        raise (Deadlock (Printf.sprintf "executive deadlock: %s" (describe_blocked ())));
      drive ()
    end
  in
  drive ();
  let ops = List.rev !ops_log in
  let comms = List.rev !comms_log in
  let iteration_end = Array.make iterations 0. in
  List.iter
    (fun oe ->
      iteration_end.(oe.oe_iteration) <- Float.max iteration_end.(oe.oe_iteration) oe.oe_finish)
    ops;
  let overruns = ref 0 in
  Array.iteri
    (fun k t_end -> if t_end > (float_of_int (k + 1) *. period) +. 1e-9 then incr overruns)
    iteration_end;
  let bus_log =
    if not have_bus then []
    else begin
      let horizon = float_of_int iterations *. period in
      List.filter_map
        (fun (mid : Arch.medium_id) ->
          match buses.((mid :> int)) with
          | None -> None
          | Some b ->
              Media.Bus.drain b ~until:horizon;
              Some (Arch.medium_name arch mid, Media.Bus.log b))
        (Arch.media arch)
    end
  in
  {
    executive = exe;
    period;
    iterations;
    ops;
    comms;
    iteration_end;
    overruns = !overruns;
    lost_transfers = !lost_transfers;
    stale_reads = !stale_reads;
    retransmissions = !retransmissions;
    recovered_transfers = !recovered_transfers;
    recovery_events = List.sort Recovery.compare_event !events;
    detection_latency = None;
    switched_at = None;
    bus_log;
    continuation = None;
  }

(* re-express an injection in the failover executive's frame, which
   starts at iteration [iterations] / absolute time [offset] *)
let shift_injection (i : Injection.t) ~iterations ~offset =
  {
    Injection.operator_failed =
      (fun ~operator ~time -> i.Injection.operator_failed ~operator ~time:(time +. offset));
    medium_down =
      (fun ~medium ~time -> i.Injection.medium_down ~medium ~time:(time +. offset));
    transfer_lost =
      (fun ~iteration ~slot ->
        i.Injection.transfer_lost ~iteration:(iteration + iterations) ~slot);
    retry_lost =
      (fun ~attempt ~iteration ~slot ->
        i.Injection.retry_lost ~attempt ~iteration:(iteration + iterations) ~slot);
    overrun =
      (fun ~iteration ~op -> i.Injection.overrun ~iteration:(iteration + iterations) ~op);
  }

let shift_event ~offset ~k = function
  | Recovery.Stale_detected e ->
      Recovery.Stale_detected
        { e with time = e.time +. offset; iteration = e.iteration + k }
  | Recovery.Transfer_recovered e ->
      Recovery.Transfer_recovered
        { e with time = e.time +. offset; iteration = e.iteration + k }
  | Recovery.Retries_exhausted e ->
      Recovery.Retries_exhausted
        { e with time = e.time +. offset; iteration = e.iteration + k }
  | Recovery.Failstop_confirmed e ->
      Recovery.Failstop_confirmed { e with time = e.time +. offset }
  | Recovery.Mode_switched e ->
      Recovery.Mode_switched { e with time = e.time +. offset; iteration = e.iteration + k }
  | Recovery.Voter_switched e ->
      Recovery.Voter_switched { e with time = e.time +. offset; iteration = e.iteration + k }

let run ?(config = default_config) exe =
  if config.iterations <= 0 then invalid_arg "Machine.run: non-positive iteration count";
  let pol = config.recovery in
  let sched = exe.Cg.schedule in
  let period = Alg.period sched.Sched.algorithm in
  let confirmation =
    if Injection.is_none config.injection then None
    else
      Recovery.confirm pol ~operator_failed:config.injection.Injection.operator_failed
        ~operators:
          (List.map
             (Arch.operator_name sched.Sched.architecture)
             (Arch.operators sched.Sched.architecture))
        ~period ~iterations:config.iterations
  in
  match confirmation with
  | None -> run_single ~config exe
  | Some conf -> (
      let confirmed =
        Recovery.Failstop_confirmed
          {
            time = conf.Recovery.confirm_time;
            operator = conf.Recovery.operator;
            fail_time = conf.Recovery.fail_time;
          }
      in
      let latency = Some (conf.Recovery.confirm_time -. conf.Recovery.fail_time) in
      let k_switch =
        Recovery.switch_iteration pol ~confirm_time:conf.Recovery.confirm_time ~period
      in
      match List.assoc_opt conf.Recovery.operator pol.Recovery.failover with
      | Some failover_exe when k_switch < config.iterations ->
          (* two-phase run: the nominal executive up to the switch
             release, the failover executive — fed the same injection
             and condition stream re-expressed in its frame — after it.
             The continuation trace stays in its own (failover) frame
             so it remains self-consistent; the top-level counters are
             whole-run totals. *)
          let offset = float_of_int k_switch *. period in
          let phase1 = run_single ~config:{ config with iterations = k_switch } exe in
          let phase2 =
            run_single
              ~config:
                {
                  config with
                  iterations = config.iterations - k_switch;
                  injection = shift_injection config.injection ~iterations:k_switch ~offset;
                  condition =
                    (fun ~iteration ~var ->
                      config.condition ~iteration:(iteration + k_switch) ~var);
                  recovery = { pol with Recovery.failover = [] };
                }
              failover_exe
          in
          let iteration_end = Array.make config.iterations 0. in
          Array.blit phase1.iteration_end 0 iteration_end 0 k_switch;
          Array.iteri
            (fun k t -> iteration_end.(k_switch + k) <- t +. offset)
            phase2.iteration_end;
          let events =
            phase1.recovery_events
            @ [
                confirmed;
                Recovery.Mode_switched
                  { time = offset; iteration = k_switch; operator = conf.Recovery.operator };
              ]
            @ List.map (shift_event ~offset ~k:k_switch) phase2.recovery_events
            |> List.sort Recovery.compare_event
          in
          {
            executive = exe;
            period;
            iterations = config.iterations;
            ops = phase1.ops;
            comms = phase1.comms;
            iteration_end;
            overruns = phase1.overruns + phase2.overruns;
            lost_transfers = phase1.lost_transfers + phase2.lost_transfers;
            stale_reads = phase1.stale_reads + phase2.stale_reads;
            retransmissions = phase1.retransmissions + phase2.retransmissions;
            recovered_transfers = phase1.recovered_transfers + phase2.recovered_transfers;
            recovery_events = events;
            detection_latency = latency;
            switched_at = Some k_switch;
            bus_log = phase1.bus_log;
            continuation = Some phase2;
          }
      | Some _ | None ->
          (* confirmed, but no failover executive (or none needed
             within the run): the detection still dates the event *)
          let t = run_single ~config exe in
          {
            t with
            recovery_events =
              List.sort Recovery.compare_event (confirmed :: t.recovery_events);
            detection_latency = latency;
          })

let rec instants trace op =
  let arr = Array.make trace.iterations Float.nan in
  List.iter
    (fun oe ->
      if oe.oe_op = op && (not oe.oe_skipped) && not oe.oe_failed then
        arr.(oe.oe_iteration) <- oe.oe_finish)
    trace.ops;
  (match (trace.continuation, trace.switched_at) with
  | Some cont, Some k_switch ->
      let offset = float_of_int k_switch *. trace.period in
      Array.iteri
        (fun k t -> if not (Float.is_nan t) then arr.(k_switch + k) <- t +. offset)
        (instants cont op)
  | _ -> ());
  arr

let latencies_of trace ids =
  List.map
    (fun op ->
      let inst = instants trace op in
      let lat =
        Array.mapi
          (fun k t -> if Float.is_nan t then t else t -. (float_of_int k *. trace.period))
          inst
      in
      (op, lat))
    ids

let sampling_latencies trace =
  latencies_of trace (Alg.sensors trace.executive.Cg.schedule.Sched.algorithm)

let actuation_latencies trace =
  latencies_of trace (Alg.actuators trace.executive.Cg.schedule.Sched.algorithm)

(* Per-iteration freshness of the actuated outputs: every actuator ran
   to completion this release (not skipped, not failed) and the
   watchdog dated no stale read during the iteration.  This is the
   evidence stream Standby's output voter consumes. *)
let fresh_actuations trace =
  let fresh = Array.make trace.iterations true in
  List.iter
    (fun op ->
      Array.iteri (fun k t -> if Float.is_nan t then fresh.(k) <- false) (instants trace op))
    (Alg.actuators trace.executive.Cg.schedule.Sched.algorithm);
  List.iter
    (function
      | Recovery.Stale_detected { iteration; _ }
        when iteration >= 0 && iteration < trace.iterations ->
          fresh.(iteration) <- false
      | _ -> ())
    trace.recovery_events;
  fresh

let utilization trace =
  let arch = trace.executive.Cg.schedule.Sched.architecture in
  let horizon = float_of_int trace.iterations *. trace.period in
  (* busy time per operator *name*: the failover architecture renumbers
     the surviving operators, so a mode switch is stitched by name *)
  let rec busy_by_name t =
    let arch_t = t.executive.Cg.schedule.Sched.architecture in
    let own =
      List.map
        (fun operator ->
          ( Arch.operator_name arch_t operator,
            List.fold_left
              (fun acc oe ->
                if oe.oe_operator = operator && not oe.oe_skipped then
                  acc +. (oe.oe_finish -. oe.oe_start)
                else acc)
              0. t.ops ))
        (Arch.operators arch_t)
    in
    match t.continuation with
    | None -> own
    | Some cont ->
        let rest = busy_by_name cont in
        List.map
          (fun (name, b) ->
            (name, b +. Option.value (List.assoc_opt name rest) ~default:0.))
          own
  in
  let busy = busy_by_name trace in
  List.map
    (fun operator ->
      let name = Arch.operator_name arch operator in
      (operator, Option.value (List.assoc_opt name busy) ~default:0. /. horizon))
    (Arch.operators arch)

let latencies_csv trace =
  let alg = trace.executive.Cg.schedule.Sched.algorithm in
  let columns =
    List.map (fun (op, lat) -> ("Ls_" ^ Alg.op_name alg op, lat)) (sampling_latencies trace)
    @ List.map
        (fun (op, lat) -> ("La_" ^ Alg.op_name alg op, lat))
        (actuation_latencies trace)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    ("iteration," ^ String.concat "," (List.map fst columns) ^ "\n");
  for k = 0 to trace.iterations - 1 do
    Buffer.add_string buf (string_of_int k);
    List.iter
      (fun (_, lat) -> Buffer.add_string buf (Printf.sprintf ",%.9g" lat.(k)))
      columns;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let rec order_conformant trace =
  let sched = trace.executive.Cg.schedule in
  (* iterations executed by *this* executive: everything before the
     mode switch when one happened *)
  let phase_iterations =
    match trace.switched_at with Some k -> k | None -> trace.iterations
  in
  (* on every operator, executions must follow the scheduled sequence
     within each iteration, without overlap *)
  let ok = ref true in
  List.iter
    (fun operator ->
      let expected = List.map (fun s -> s.Sched.cs_op) (Sched.on_operator sched operator) in
      for k = 0 to phase_iterations - 1 do
        let actual =
          List.filter_map
            (fun oe ->
              if oe.oe_operator = operator && oe.oe_iteration = k then Some oe else None)
            trace.ops
        in
        let names = List.map (fun oe -> oe.oe_op) actual in
        if names <> expected then ok := false;
        let rec overlap = function
          | a :: (b :: _ as rest) ->
              if a.oe_finish > b.oe_start +. 1e-9 then ok := false;
              overlap rest
          | [ _ ] | [] -> ()
        in
        overlap actual
      done)
    (Arch.operators sched.Sched.architecture);
  !ok && match trace.continuation with Some cont -> order_conformant cont | None -> true

module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Sched = Aaa.Schedule
module Cg = Aaa.Codegen

type config = {
  iterations : int;
  law : Timing_law.t;
  comm_jitter_frac : float;
  bcet_frac : float;
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
    overrun_prob = 0.;
    overrun_factor = 1.5;
    seed = 42;
    condition = (fun ~iteration:_ ~var:_ -> 0);
    injection = Injection.none;
    recovery = Recovery.disabled;
    bus_models = [];
  }

type trace = {
  period : float;
  iterations : int;
  violations : int;
  remote_consumptions : int;
  actuation_latencies : (Alg.op_id * float array) list;
  overruns : int;
  lost_transfers : int;
  retransmissions : int;
  recovered_transfers : int;
  recovery_events : Recovery.event list;
  bus_log : (string * Media.Bus.completion list) list;
}

let prev_key c =
  let a, b, d, e, hop = Sched.slot_key c in
  (a, b, d, e, hop - 1)

let run ?(config = default_config) exe =
  if config.iterations <= 0 then invalid_arg "Async.run: non-positive iteration count";
  let sched = exe.Cg.schedule in
  let alg = sched.Sched.algorithm in
  let period = Alg.period alg in
  let rng = Numerics.Rng.create config.seed in
  let table t key =
    match Hashtbl.find_opt t key with
    | Some a -> a
    | None ->
        let a = Array.make config.iterations Float.nan in
        Hashtbl.replace t key a;
        a
  in
  let posted : (int * int * int * int * int, float array) Hashtbl.t = Hashtbl.create 32 in
  let read_at : (int * int * int * int * int, float array) Hashtbl.t = Hashtbl.create 32 in
  let finish_of : (int, float array) Hashtbl.t = Hashtbl.create 32 in
  let finishes (op : Alg.op_id) =
    match Hashtbl.find_opt finish_of (op :> int) with
    | Some a -> a
    | None ->
        let a = Array.make config.iterations Float.nan in
        Hashtbl.replace finish_of (op :> int) a;
        a
  in
  let overruns = ref 0 in
  let inj = config.injection in
  let have_inj = not (Injection.is_none inj) in
  (* shared-bus models, one fresh Media.Bus.t per modeled medium *)
  let buses =
    if config.bus_models = [] then [||]
    else begin
      let arch = sched.Sched.architecture in
      let arr = Array.make (Arch.medium_count arch) None in
      List.iter
        (fun (bname, bcfg) ->
          match Arch.find_medium arch bname with
          | None ->
              invalid_arg
                (Printf.sprintf
                   "[MEDIA004] Async.run: bus model %S names no medium of architecture %S"
                   bname (Arch.name arch))
          | Some mid ->
              if Arch.medium_kind arch mid <> Arch.Bus then
                invalid_arg
                  (Printf.sprintf
                     "[MEDIA004] Async.run: medium %S is not a shared bus"
                     bname);
              arr.((mid :> int)) <- Some (Media.Bus.create bcfg))
        config.bus_models;
      arr
    end
  in
  let bus_of mid = if Array.length buses = 0 then None else buses.(mid) in
  let pol = config.recovery in
  let retrans_on = have_inj && Recovery.retransmission_enabled pol in
  let lost_transfers = ref 0 in
  let retransmissions = ref 0 and recovered_transfers = ref 0 in
  let events = ref [] in
  let retry_used : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
  (* remember each read slot so phase 3 can name the consumer *)
  let slot_of_key : (int * int * int * int * int, Sched.comm_slot) Hashtbl.t =
    Hashtbl.create 32
  in
  (* phase 1: operators fire every instruction at its static offset
     (or as soon as the previous one finishes, when running late) *)
  List.iter
    (fun (operator, body) ->
      let operator = Arch.operator_name sched.Sched.architecture operator in
      let time = ref 0. in
      for k = 0 to config.iterations - 1 do
        let base = float_of_int k *. period in
        List.iter
          (fun instr ->
            match instr with
            | Cg.Wait_period ->
                if !time > base +. 1e-9 then incr overruns;
                time := Float.max !time base
            | Cg.Exec op ->
                let slot = Sched.slot_of sched op in
                let start = Float.max !time (base +. slot.Sched.cs_start) in
                let skipped =
                  match Alg.op_cond alg op with
                  | None -> false
                  | Some { Alg.var; value } -> config.condition ~iteration:k ~var <> value
                in
                let failed =
                  have_inj && inj.Injection.operator_failed ~operator ~time:start
                in
                let duration =
                  if skipped || failed then 0.
                  else begin
                    let wcet = slot.Sched.cs_duration in
                    let nominal =
                      Timing_law.sample config.law rng ~bcet:(config.bcet_frac *. wcet)
                        ~wcet
                    in
                    let nominal =
                      if config.overrun_prob > 0.
                         && Numerics.Rng.float rng 1. < config.overrun_prob
                      then nominal *. config.overrun_factor
                      else nominal
                    in
                    match
                      if have_inj then
                        inj.Injection.overrun ~iteration:k ~op:(Alg.op_name alg op)
                      else None
                    with
                    | Some factor -> nominal *. factor
                    | None -> nominal
                  end
                in
                time := start +. duration;
                if not failed then (finishes op).(k) <- !time
            | Cg.Send c ->
                (* a fail-stopped producer posts nothing: the table's
                   bus slot departs carrying the old value *)
                if
                  not
                    (have_inj && inj.Injection.operator_failed ~operator ~time:!time)
                then (table posted (Sched.slot_key c)).(k) <- !time
            | Cg.Recv c ->
                (* time-triggered read at the planned read offset —
                   completion plus any slack the schedule inserted for
                   retransmissions (Schedule.insert_slack) *)
                let planned = base +. c.Sched.cm_read in
                let t_read = Float.max !time planned in
                time := t_read;
                Hashtbl.replace slot_of_key (Sched.slot_key c) c;
                (table read_at (Sched.slot_key c)).(k) <- t_read)
          body
      done)
    exe.Cg.programs;
  (* phase 2: the media are time-triggered too — every transfer slot
     fires at its planned offset (or as soon as the medium frees up),
     in the static order.  Data that has not been posted by departure
     misses its slot: the fresh value only travels next period, which
     the freshness check reports as a stale read. *)
  let arrival : (int * int * int * int * int, float array) Hashtbl.t = Hashtbl.create 32 in
  let medium_time : (int, float ref) Hashtbl.t = Hashtbl.create 8 in
  let medium_clock m =
    match Hashtbl.find_opt medium_time m with
    | Some r -> r
    | None ->
        let r = ref 0. in
        Hashtbl.replace medium_time m r;
        r
  in
  (* all transfer instances in global planned-start order, so a hop's
     predecessor (always planned earlier) is processed first *)
  let instances =
    List.concat_map
      (fun (_, transfers) ->
        List.concat_map
          (fun c ->
            List.init config.iterations (fun k ->
                ((float_of_int k *. period) +. c.Sched.cm_start, c, k)))
          transfers)
      exe.Cg.media_programs
    |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
  in
  List.iter
    (fun (planned_start, c, k) ->
      let clock = medium_clock ((c.Sched.cm_medium :> int)) in
      let bus = bus_of (c.Sched.cm_medium :> int) in
      let release = Float.max !clock planned_start in
      (* with a bus model, the slot's frame is enqueued at its planned
         offset and arbitrates against the bus's other traffic; the
         fixed-duration path below is bit-for-bit the original *)
      let start, t_done0, bus_dropped =
        match bus with
        | None -> (release, release +. c.Sched.cm_duration, false)
        | Some b ->
            let node = (c.Sched.cm_from :> int) in
            let duration =
              if config.comm_jitter_frac <= 0. || c.Sched.cm_duration <= 0. then
                c.Sched.cm_duration
              else
                Numerics.Rng.uniform rng
                  ((1. -. Float.min 1. config.comm_jitter_frac)
                  *. c.Sched.cm_duration)
                  c.Sched.cm_duration
            in
            if Media.Bus.node_off b ~node ~time:release then
              (* a bus-off interface posts nothing and occupies no bus *)
              (release, release, true)
            else
              let comp =
                Media.Bus.transmit b ~ident:(Media.Bus.slot_identifier c)
                  ~node ~release ~duration
              in
              ( comp.Media.Bus.c_start,
                comp.Media.Bus.c_finish,
                comp.Media.Bus.c_dropped )
      in
      let ready =
        if c.Sched.cm_hop = 0 then (table posted (Sched.slot_key c)).(k)
        else (table arrival (prev_key c)).(k)
      in
      let data_ready = (not (Float.is_nan ready)) && ready <= start +. 1e-12 in
      let medium_name = Arch.medium_name sched.Sched.architecture c.Sched.cm_medium in
      let dropped =
        have_inj
        && (inj.Injection.medium_down ~medium:medium_name ~time:start
           || inj.Injection.transfer_lost ~iteration:k ~slot:c)
      in
      (* the slot is consumed whether or not fresh data made it *)
      let t_done = ref t_done0 in
      let delivered = ref (not (dropped || bus_dropped)) in
      let attempts = ref 0 in
      if dropped && (not bus_dropped) && data_ready && retrans_on then begin
        (* retries extend the slot past its planned end; the table's
           later transfers on this medium are pushed back — recovery
           can itself cause overruns *)
        let mkey = ((c.Sched.cm_medium :> int), k) in
        let used = ref (Option.value (Hashtbl.find_opt retry_used mkey) ~default:0) in
        while
          (not !delivered)
          && !attempts < pol.Recovery.max_retries
          && !used < pol.Recovery.retry_budget
        do
          incr attempts;
          incr used;
          incr retransmissions;
          let retry_start = !t_done +. Recovery.backoff_delay pol ~attempt:!attempts in
          let retry_bus_dropped =
            match bus with
            | None ->
                t_done := retry_start +. c.Sched.cm_duration;
                false
            | Some b ->
                let comp =
                  Media.Bus.transmit b ~ident:(Media.Bus.slot_identifier c)
                    ~node:(c.Sched.cm_from :> int)
                    ~release:retry_start ~duration:c.Sched.cm_duration
                in
                t_done := comp.Media.Bus.c_finish;
                comp.Media.Bus.c_dropped
          in
          delivered :=
            not
              (retry_bus_dropped
              || inj.Injection.medium_down ~medium:medium_name ~time:retry_start
              || inj.Injection.retry_lost ~attempt:!attempts ~iteration:k ~slot:c)
        done;
        Hashtbl.replace retry_used mkey !used;
        events :=
          (if !delivered then
             Recovery.Transfer_recovered
               { time = !t_done; iteration = k; medium = medium_name; attempts = !attempts }
           else
             Recovery.Retries_exhausted
               { time = !t_done; iteration = k; medium = medium_name; attempts = !attempts })
          :: !events
      end;
      if bus_dropped then incr lost_transfers
      else if dropped then
        if !delivered then incr recovered_transfers else incr lost_transfers;
      clock := !t_done;
      if !delivered && data_ready then
        (table arrival (Sched.slot_key c)).(k) <-
          (match bus with
          | Some _ ->
              (* bus timing already includes the jittered frame time *)
              !t_done
          | None ->
              if !attempts > 0 then !t_done
              else begin
                (* same rng draw as the recovery-free path, so disabling
                   recovery replays the seed's stream exactly *)
                let duration =
                  if config.comm_jitter_frac <= 0. || c.Sched.cm_duration <= 0. then
                    c.Sched.cm_duration
                  else
                    Numerics.Rng.uniform rng
                      ((1. -. Float.min 1. config.comm_jitter_frac) *. c.Sched.cm_duration)
                      c.Sched.cm_duration
                in
                start +. duration
              end))
    instances;
  (* phase 3: freshness — iteration k's read is stale when iteration
     k's transfer had not arrived yet *)
  let violations = ref 0 and remote = ref 0 in
  Hashtbl.iter
    (fun key reads ->
      let arrivals = table arrival key in
      Array.iteri
        (fun k t_read ->
          if not (Float.is_nan t_read) then begin
            incr remote;
            let t_arrive = arrivals.(k) in
            if Float.is_nan t_arrive || t_arrive > t_read +. 1e-12 then begin
              incr violations;
              if pol.Recovery.freshness_watchdog then
                match Hashtbl.find_opt slot_of_key key with
                | Some c ->
                    events :=
                      Recovery.Stale_detected
                        {
                          time = t_read;
                          iteration = k;
                          op = Alg.op_name alg (fst c.Sched.cm_dst);
                        }
                      :: !events
                | None -> ()
            end
          end)
        reads)
    read_at;
  let actuation_latencies =
    List.map
      (fun op ->
        let f = finishes op in
        (op, Array.mapi (fun k t -> t -. (float_of_int k *. period)) f))
      (Alg.actuators alg)
  in
  let bus_log =
    if Array.length buses = 0 then []
    else begin
      let arch = sched.Sched.architecture in
      let horizon = float_of_int config.iterations *. period in
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
    period;
    iterations = config.iterations;
    violations = !violations;
    remote_consumptions = !remote;
    actuation_latencies;
    overruns = !overruns;
    lost_transfers = !lost_transfers;
    retransmissions = !retransmissions;
    recovered_transfers = !recovered_transfers;
    (* the Hashtbl.iter above enumerates in hash order: sort for a
       deterministic event list *)
    recovery_events = List.sort Recovery.compare_event !events;
    bus_log;
  }

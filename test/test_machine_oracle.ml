(* The executive against an oracle.  [Oracle.run] is [Exec.Machine.run]
   as it was before a run resolved its executive once: it keys every
   per-transfer table by a hashed slot tuple, looks up each WCET and
   BCET at every execution, and drives a copy of [Media.Bus] that
   recomputes each background stream's next release at every
   arbitration round.  The properties below require [Machine.run]'s
   whole trace to be bit-for-bit the oracle's. *)

open Helpers
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations
module Sched = Aaa.Schedule
module Adq = Aaa.Adequation
module Cg = Aaa.Codegen
module Machine = Exec.Machine
module Recovery = Exec.Recovery
module Scenario = Fault.Scenario
module Degrade = Fault.Degrade
module Pool = Explore.Pool

(* ------------------------------------------------------------------ *)
(* the oracle *)

module Oracle = struct
  module Injection = Exec.Injection
  module Recovery = Exec.Recovery
  module Timing_law = Exec.Timing_law
  open Exec.Machine

  (* [Media.Bus] without the cached next release of each stream *)
  module Bus = struct
    open Media.Bus

    (* A released-but-unfinished frame.  Background retries re-enter this
       queue; the foreground frame is threaded through [transmit]'s loop
       instead so it never mixes with lazily generated traffic. *)
    type pending = {
      q_ident : int;
      q_node : int;
      q_release : float;  (* ready for (re-)arbitration from this instant *)
      q_first_release : float;
      q_duration : float;
      q_attempt : int;  (* 1-based *)
      q_seq : int;  (* per-frame coordinate for fault decisions *)
    }

    type t = {
      cfg : config;
      streams : Media.Load.stream array;
      next_k : int array;  (* per-stream next frame number to release *)
      mutable free_at : float;  (* bus idle from this instant *)
      mutable queue : pending list;  (* released background frames *)
      mutable completions : completion list;  (* reverse chronological *)
      mutable busy : float;
      mutable fg_seq : int;  (* foreground frames submitted so far *)
    }

    let create cfg =
      validate cfg;
      let streams = Array.of_list cfg.b_load in
      {
        cfg;
        streams;
        next_k = Array.make (Array.length streams) 0;
        free_at = 0.;
        queue = [];
        completions = [];
        busy = 0.;
        fg_seq = 0;
      }

    let config t = t.cfg

    let have_faults t = t.cfg.b_faults != no_faults

    let node_off t ~node ~time =
      have_faults t && t.cfg.b_faults.f_node_off ~node ~time

    let corrupted t ~ident ~node ~attempt ~seq =
      have_faults t && t.cfg.b_faults.f_corrupted ~ident ~node ~attempt ~seq

    (* Earliest still-ungenerated background release, ignoring the window
       end and bus-off (those are applied when the frame is materialised —
       skipping here would need the same checks anyway). *)
    let next_stream_release t =
      let best = ref infinity in
      Array.iteri
        (fun i s ->
          let k = t.next_k.(i) in
          let r = Media.Load.release ~seed:t.cfg.b_seed ~index:i s k in
          if r < s.Media.Load.l_until && r < !best then best := r)
        t.streams;
      !best

    (* Materialise every background frame released up to [upto]. *)
    let refill t ~upto =
      Array.iteri
        (fun i s ->
          let continue_ = ref true in
          while !continue_ do
            let k = t.next_k.(i) in
            let r = Media.Load.release ~seed:t.cfg.b_seed ~index:i s k in
            if r >= s.Media.Load.l_until || r > upto then continue_ := false
            else begin
              t.next_k.(i) <- k + 1;
              if not (node_off t ~node:s.Media.Load.l_node ~time:r) then
                t.queue <-
                  {
                    q_ident = s.Media.Load.l_ident;
                    q_node = s.Media.Load.l_node;
                    q_release = r;
                    q_first_release = r;
                    q_duration = frame_time t.cfg ~words:s.Media.Load.l_words;
                    q_attempt = 1;
                    q_seq = (i lsl 20) lor (k land 0xFFFFF);
                  }
                  :: t.queue
            end
          done)
        t.streams

    let queue_min_release t =
      List.fold_left (fun acc p -> Float.min acc p.q_release) infinity t.queue

    (* Total order on competing frames: identifier first (lower wins the
       arbitration), then node and sequence so ties stay deterministic. *)
    let beats a b =
      a.q_ident < b.q_ident
      || (a.q_ident = b.q_ident
          && (a.q_node < b.q_node || (a.q_node = b.q_node && a.q_seq < b.q_seq)))

    let pick_winner t ~at ~fg =
      let best = ref fg in
      List.iter
        (fun p ->
          if p.q_release <= at then
            match !best with
            | Some b when not (beats p b) -> ()
            | _ -> best := Some p)
        t.queue;
      !best

    let remove_pending t p = t.queue <- List.filter (fun q -> q != p) t.queue

    let log_completion t ~(p : pending) ~start ~finish ~dropped ~background =
      t.completions <-
        {
          c_ident = p.q_ident;
          c_node = p.q_node;
          c_release = p.q_first_release;
          c_start = start;
          c_finish = finish;
          c_attempts = p.q_attempt;
          c_dropped = dropped;
          c_background = background;
        }
        :: t.completions

    (* One arbitration round: find the next instant at which some frame
       (background, or the optional foreground [fg]) is pending, transmit
       the winner, and return it with its fate.  [None] when nothing is
       pending before [horizon]. *)
    type round = {
      r_frame : pending;
      r_foreground : bool;
      r_start : float;
      r_finish : float;
      r_corrupted : bool;
    }

    let rec round t ?fg ~horizon () =
      let t_fg = match fg with Some f -> f.q_release | None -> infinity in
      (* materialise frames released while the bus was busy (and, when a
         foreground frame waits, up to its release so they compete with
         it); without one, [t_fg] is infinite and must not drive the
         refill — the lazy [next_stream_release] covers later frames *)
      refill t
        ~upto:(match fg with None -> t.free_at | Some f -> Float.max t.free_at f.q_release);
      let t_bg = Float.min (queue_min_release t) (next_stream_release t) in
      let t_cand = Float.min t_fg t_bg in
      if t_cand >= horizon then None
      else begin
        let s = Float.max t.free_at t_cand in
        (* everything queued while the bus was busy competes at [s] *)
        refill t ~upto:s;
        let fg_ready =
          match fg with Some f when f.q_release <= s -> fg | _ -> None
        in
        match pick_winner t ~at:s ~fg:fg_ready with
        | None ->
            (* every candidate at [s] was a bus-off node's frame, skipped by
               [refill]; its cursor advanced, so retry from the next one *)
            round t ?fg ~horizon ()
        | Some w ->
            let foreground = match fg with Some f -> w == f | None -> false in
            let finish = s +. w.q_duration in
            t.free_at <- finish;
            t.busy <- t.busy +. w.q_duration;
            let corr =
              corrupted t ~ident:w.q_ident ~node:w.q_node ~attempt:w.q_attempt
                ~seq:w.q_seq
            in
            if not foreground then begin
              remove_pending t w;
              if corr && w.q_attempt <= t.cfg.b_retry_limit then
                t.queue <-
                  { w with q_release = finish; q_attempt = w.q_attempt + 1 }
                  :: t.queue
              else
                log_completion t ~p:w ~start:s ~finish ~dropped:corr
                  ~background:true
            end;
            Some
              { r_frame = w; r_foreground = foreground; r_start = s; r_finish = finish; r_corrupted = corr }
      end

    let transmit t ~ident ~node ~release ~duration =
      let seq = t.fg_seq in
      t.fg_seq <- seq + 1;
      let fg =
        ref
          {
            q_ident = ident;
            q_node = node;
            q_release = release;
            q_first_release = release;
            q_duration = duration;
            q_attempt = 1;
            q_seq = seq;
          }
      in
      let result = ref None in
      while !result = None do
        match round t ~fg:!fg ~horizon:infinity () with
        | None -> assert false (* fg is always pending *)
        | Some r ->
            if not r.r_foreground then begin
              (* transmit abort: on a starved (overloaded) bus the sender
                 gives up once it has waited [max_wait] past its release —
                 the liveness bound that keeps an overloaded simulation
                 (flagged statically by MEDIA001) terminating *)
              if t.free_at -. release >= t.cfg.b_max_wait then begin
                let give_up = t.free_at in
                let c =
                  {
                    c_ident = ident;
                    c_node = node;
                    c_release = release;
                    c_start = give_up;
                    c_finish = give_up;
                    c_attempts = !fg.q_attempt;
                    c_dropped = true;
                    c_background = false;
                  }
                in
                t.completions <- c :: t.completions;
                result := Some c
              end
            end
            else if r.r_corrupted && !fg.q_attempt <= t.cfg.b_retry_limit then
              fg := { !fg with q_release = r.r_finish; q_attempt = !fg.q_attempt + 1 }
            else begin
              let c =
                {
                  c_ident = ident;
                  c_node = node;
                  c_release = release;
                  c_start = r.r_start;
                  c_finish = r.r_finish;
                  c_attempts = !fg.q_attempt;
                  c_dropped = r.r_corrupted;
                  c_background = false;
                }
              in
              t.completions <- c :: t.completions;
              result := Some c
            end
      done;
      Option.get !result

    let drain t ~until =
      let continue_ = ref true in
      while !continue_ do
        match round t ~horizon:until () with
        | None -> continue_ := false
        | Some _ -> ()
      done

    let log t = List.rev t.completions
  end

  (* identity of one hop of a transfer within one iteration *)
  let slot_key (c : Sched.comm_slot) =
    ( (fst c.Sched.cm_src :> int),
      snd c.Sched.cm_src,
      (fst c.Sched.cm_dst :> int),
      snd c.Sched.cm_dst,
      c.Sched.cm_hop )

  type operator_state = {
    os_id : Arch.operator_id;
    os_program : Cg.instr array;
    mutable os_pc : int;
    mutable os_iter : int;
    mutable os_time : float;
  }

  type medium_state = {
    ms_transfers : Sched.comm_slot array;
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
    let rng = Numerics.Rng.create config.seed in
    let posted : (int * int * int * int * int, float array) Hashtbl.t = Hashtbl.create 64 in
    let finished : (int * int * int * int * int, float array) Hashtbl.t = Hashtbl.create 64 in
    let slot_table kind table key =
      match Hashtbl.find_opt table key with
      | Some arr -> arr
      | None ->
          let arr = Array.make config.iterations Float.nan in
          Hashtbl.replace table key arr;
          ignore kind;
          arr
    in
    let operators =
      List.map
        (fun (operator, body) ->
          { os_id = operator; os_program = Array.of_list body; os_pc = 0; os_iter = 0; os_time = 0. })
        exe.Cg.programs
    in
    let media =
      List.map
        (fun (_, transfers) ->
          { ms_transfers = Array.of_list transfers; ms_index = 0; ms_iter = 0; ms_time = 0. })
        exe.Cg.media_programs
    in
    let ops_log = ref [] in
    let comms_log = ref [] in
    let inj = config.injection in
    let have_inj = not (Injection.is_none inj) in
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
                arr.((mid :> int)) <- Some (Bus.create bcfg))
          config.bus_models;
        arr
      end
    in
    let have_bus = Array.length buses > 0 in
    let bus_of mid = if have_bus then buses.(mid) else None in
    let pol = config.recovery in
    let retrans_on = have_inj && Recovery.retransmission_enabled pol in
    (* per hop instance: the payload carried is stale (lost somewhere
       upstream); the slot itself always fires, so injected faults never
       block the executive *)
    let lost : (int * int * int * int * int, bool array) Hashtbl.t = Hashtbl.create 16 in
    let lost_arr key =
      match Hashtbl.find_opt lost key with
      | Some a -> a
      | None ->
          let a = Array.make config.iterations false in
          Hashtbl.replace lost key a;
          a
    in
    let lost_transfers = ref 0 and stale_reads = ref 0 in
    let retransmissions = ref 0 and recovered_transfers = ref 0 in
    let events = ref [] in
    (* retransmissions already spent, per medium and iteration *)
    let retry_used : (int * int, int) Hashtbl.t = Hashtbl.create 8 in
    let operator_dead os =
      have_inj
      && inj.Injection.operator_failed ~operator:(Arch.operator_name arch os.os_id)
           ~time:os.os_time
    in
    let sample_exec_duration op operator =
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
      if os.os_iter >= config.iterations then false
      else
        match os.os_program.(os.os_pc) with
        | Cg.Wait_period ->
            os.os_time <- Float.max os.os_time (float_of_int os.os_iter *. period);
            os.os_pc <- os.os_pc + 1;
            true
        | Cg.Exec op ->
            let skipped =
              match Alg.op_cond alg op with
              | None -> false
              | Some { Alg.var; value } -> config.condition ~iteration:os.os_iter ~var <> value
            in
            let failed = (not skipped) && operator_dead os in
            let start = os.os_time in
            let finish =
              if skipped || failed then start
              else begin
                let d = sample_exec_duration op os.os_id in
                match
                  if have_inj then
                    inj.Injection.overrun ~iteration:os.os_iter ~op:(Alg.op_name alg op)
                  else None
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
        | Cg.Send c ->
            let arr = slot_table `Posted posted (slot_key c) in
            arr.(os.os_iter) <- os.os_time;
            (* a dead producer posts instantly, but the value it posts is
               the previous iteration's (its outputs are frozen) *)
            if operator_dead os then begin
              let la = lost_arr (slot_key c) in
              if not la.(os.os_iter) then begin
                la.(os.os_iter) <- true;
                incr lost_transfers
              end
            end;
            os.os_pc <- os.os_pc + 1;
            true
        | Cg.Recv c ->
            let arr = slot_table `Finished finished (slot_key c) in
            let t = arr.(os.os_iter) in
            if Float.is_nan t then false
            else begin
              os.os_time <- Float.max os.os_time t;
              if (have_inj || have_bus) && (lost_arr (slot_key c)).(os.os_iter) then begin
                incr stale_reads;
                if pol.Recovery.freshness_watchdog then
                  events :=
                    Recovery.Stale_detected
                      {
                        time = os.os_time;
                        iteration = os.os_iter;
                        op = Alg.op_name alg (fst c.Sched.cm_dst);
                      }
                    :: !events
              end;
              os.os_pc <- os.os_pc + 1;
              true
            end
    in
    let wrap_operator os =
      if os.os_iter < config.iterations && os.os_pc >= Array.length os.os_program then begin
        os.os_iter <- os.os_iter + 1;
        os.os_pc <- 0
      end
    in
    let step_medium ms =
      if ms.ms_iter >= config.iterations || Array.length ms.ms_transfers = 0 then false
      else begin
        let c = ms.ms_transfers.(ms.ms_index) in
        (* hop 0 waits for the producer's post; later hops wait for the
           previous hop's completion *)
        let posted_arr =
          if c.Sched.cm_hop = 0 then slot_table `Posted posted (slot_key c)
          else
            slot_table `Finished finished
              (let a, b, cc, d, hop = slot_key c in
               (a, b, cc, d, hop - 1))
        in
        let t_posted = posted_arr.(ms.ms_iter) in
        if Float.is_nan t_posted then false
        else begin
          let bus = bus_of (c.Sched.cm_medium :> int) in
          (* with a bus model attached, the transfer becomes a frame
             arbitrating against the bus's other traffic; without one,
             the fixed-duration path below is bit-for-bit the original *)
          let start, finish0, bus_dropped =
            match bus with
            | None ->
                let start = Float.max ms.ms_time t_posted in
                (start, start +. sample_comm_duration c.Sched.cm_duration, false)
            | Some b ->
                let release = Float.max ms.ms_time t_posted in
                let node = (c.Sched.cm_from :> int) in
                let duration = sample_comm_duration c.Sched.cm_duration in
                if Bus.node_off b ~node ~time:release then
                  (* a bus-off interface posts nothing: the slot still
                     elapses (no bus occupancy) so the Recv unblocks *)
                  (release, release +. duration, true)
                else
                  let comp =
                    Bus.transmit b ~ident:(Media.Bus.slot_identifier c)
                      ~node ~release ~duration
                  in
                  ( comp.Media.Bus.c_start,
                    comp.Media.Bus.c_finish,
                    comp.Media.Bus.c_dropped )
          in
          let finish = ref finish0 in
          if bus_dropped then begin
            let la = lost_arr (slot_key c) in
            if not la.(ms.ms_iter) then begin
              la.(ms.ms_iter) <- true;
              incr lost_transfers
            end
          end;
          if have_inj || have_bus then begin
            let inherited =
              let key =
                if c.Sched.cm_hop = 0 then slot_key c
                else
                  let a, b, d, e, hop = slot_key c in
                  (a, b, d, e, hop - 1)
              in
              (lost_arr key).(ms.ms_iter)
            in
            let medium_name = Arch.medium_name arch c.Sched.cm_medium in
            let dropped =
              have_inj
              && (inj.Injection.medium_down ~medium:medium_name ~time:start
                 || inj.Injection.transfer_lost ~iteration:ms.ms_iter ~slot:c)
            in
            if inherited then
              (* stale at the source (or already dropped by the bus): a
                 retransmission would resend the same stale payload, so
                 the mark just propagates *)
              (lost_arr (slot_key c)).(ms.ms_iter) <- true
            else if dropped then begin
              (* bounded retransmission with exponential backoff; every
                 retry extends the slot, consuming real medium time *)
              let delivered = ref false in
              let attempts = ref 0 in
              if retrans_on then begin
                let mkey = ((c.Sched.cm_medium :> int), ms.ms_iter) in
                let used =
                  ref (Option.value (Hashtbl.find_opt retry_used mkey) ~default:0)
                in
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
                    match bus with
                    | None ->
                        finish :=
                          retry_start +. sample_comm_duration c.Sched.cm_duration;
                        false
                    | Some b ->
                        let comp =
                          Bus.transmit b
                            ~ident:(Media.Bus.slot_identifier c)
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
                      || inj.Injection.medium_down ~medium:medium_name
                           ~time:retry_start
                      || inj.Injection.retry_lost ~attempt:!attempts
                           ~iteration:ms.ms_iter ~slot:c)
                done;
                Hashtbl.replace retry_used mkey !used;
                events :=
                  (if !delivered then
                     Recovery.Transfer_recovered
                       {
                         time = !finish;
                         iteration = ms.ms_iter;
                         medium = medium_name;
                         attempts = !attempts;
                       }
                   else
                     Recovery.Retries_exhausted
                       {
                         time = !finish;
                         iteration = ms.ms_iter;
                         medium = medium_name;
                         attempts = !attempts;
                       })
                  :: !events
              end;
              if !delivered then incr recovered_transfers
              else begin
                (lost_arr (slot_key c)).(ms.ms_iter) <- true;
                incr lost_transfers
              end
            end
          end;
          let fin_arr = slot_table `Finished finished (slot_key c) in
          fin_arr.(ms.ms_iter) <- !finish;
          ms.ms_time <- !finish;
          comms_log :=
            { ce_iteration = ms.ms_iter; ce_slot = c; ce_start = start; ce_finish = !finish }
            :: !comms_log;
          if ms.ms_index + 1 >= Array.length ms.ms_transfers then begin
            ms.ms_index <- 0;
            ms.ms_iter <- ms.ms_iter + 1
          end
          else ms.ms_index <- ms.ms_index + 1;
          true
        end
      end
    in
    let all_done () =
      List.for_all (fun os -> os.os_iter >= config.iterations) operators
      && List.for_all
           (fun ms -> ms.ms_iter >= config.iterations || Array.length ms.ms_transfers = 0)
           media
    in
    let describe_blocked () =
      let operator_desc =
        List.filter_map
          (fun os ->
            if os.os_iter >= config.iterations then None
            else
              Some
                (Printf.sprintf "%s blocked at pc=%d (iteration %d)"
                   (Arch.operator_name arch os.os_id)
                   os.os_pc os.os_iter))
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
    let iteration_end = Array.make config.iterations 0. in
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
        let horizon = float_of_int config.iterations *. period in
        List.filter_map
          (fun (mid : Arch.medium_id) ->
            match buses.((mid :> int)) with
            | None -> None
            | Some b ->
                Bus.drain b ~until:horizon;
                Some (Arch.medium_name arch mid, Bus.log b))
          (Arch.media arch)
      end
    in
    {
      executive = exe;
      period;
      iterations = config.iterations;
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
end

(* ------------------------------------------------------------------ *)
(* the whole trace, floats as exact hex *)

let slot_line (c : Sched.comm_slot) =
  let a, b, d, e, hop = Sched.slot_key c in
  Printf.sprintf "%d.%d->%d.%d#%d on %d %d->%d" a b d e hop
    (c.Sched.cm_medium :> int)
    (c.Sched.cm_from :> int)
    (c.Sched.cm_to :> int)

let event_line = function
  | Recovery.Stale_detected { time; iteration; op } ->
      Printf.sprintf "stale %h %d %s" time iteration op
  | Recovery.Transfer_recovered { time; iteration; medium; attempts } ->
      Printf.sprintf "recovered %h %d %s %d" time iteration medium attempts
  | Recovery.Retries_exhausted { time; iteration; medium; attempts } ->
      Printf.sprintf "exhausted %h %d %s %d" time iteration medium attempts
  | Recovery.Failstop_confirmed { time; operator; fail_time } ->
      Printf.sprintf "confirmed %h %s %h" time operator fail_time
  | Recovery.Mode_switched { time; iteration; operator } ->
      Printf.sprintf "switched %h %d %s" time iteration operator
  | Recovery.Voter_switched { time; iteration; operator } ->
      Printf.sprintf "voted %h %d %s" time iteration operator

let rec fingerprint (t : Machine.trace) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "period %h, %d iterations\n" t.Machine.period t.Machine.iterations;
  List.iter
    (fun (o : Machine.op_exec) ->
      Printf.bprintf b "op %d %d on %d %h %h %b %b\n" o.Machine.oe_iteration
        (o.Machine.oe_op :> int)
        (o.Machine.oe_operator :> int)
        o.Machine.oe_start o.Machine.oe_finish o.Machine.oe_skipped o.Machine.oe_failed)
    t.Machine.ops;
  List.iter
    (fun (c : Machine.comm_exec) ->
      Printf.bprintf b "comm %d %s %h %h\n" c.Machine.ce_iteration
        (slot_line c.Machine.ce_slot) c.Machine.ce_start c.Machine.ce_finish)
    t.Machine.comms;
  Array.iter (Printf.bprintf b "end %h\n") t.Machine.iteration_end;
  Printf.bprintf b "overruns %d lost %d stale %d retransmissions %d recovered %d\n"
    t.Machine.overruns t.Machine.lost_transfers t.Machine.stale_reads
    t.Machine.retransmissions t.Machine.recovered_transfers;
  List.iter (fun e -> Printf.bprintf b "%s\n" (event_line e)) t.Machine.recovery_events;
  Option.iter (Printf.bprintf b "detection %h\n") t.Machine.detection_latency;
  Option.iter (Printf.bprintf b "switched at %d\n") t.Machine.switched_at;
  List.iter
    (fun (name, log) ->
      Printf.bprintf b "bus %s\n" name;
      List.iter
        (fun (c : Media.Bus.completion) ->
          Printf.bprintf b "frame %d %d %h %h %h %d %b %b\n" c.Media.Bus.c_ident
            c.Media.Bus.c_node c.Media.Bus.c_release c.Media.Bus.c_start
            c.Media.Bus.c_finish c.Media.Bus.c_attempts c.Media.Bus.c_dropped
            c.Media.Bus.c_background)
        log)
    t.Machine.bus_log;
  Option.iter
    (fun c -> Printf.bprintf b "continuation\n%s" (fingerprint c))
    t.Machine.continuation;
  Buffer.contents b

(* a deadlock or a rejected configuration must be the same one *)
let outcome run =
  match run () with t -> Ok (fingerprint t) | exception e -> Error (Printexc.to_string e)

let agrees ~config exe =
  outcome (fun () -> Machine.run ~config exe) = outcome (fun () -> Oracle.run ~config exe)

(* ------------------------------------------------------------------ *)
(* random executives with everything the machine handles *)

module R = Numerics.Rng
module A = Test_adequation_oracle

let maybe rng x = if R.int rng 3 = 0 then [ x ] else []

(* background load kept under about half the bus, so no executive
   frame starves forever on an unbounded wait *)
let random_bus rng ~name ~period ~nodes =
  let time_per_word = 0.0001 *. float_of_int (1 + R.int rng 5) in
  let frame_overhead = R.float rng 0.001 in
  let count = R.int rng 4 in
  let load =
    List.init count (fun _ ->
        let words = 1 + R.int rng 8 in
        let frame = frame_overhead +. (float_of_int words *. time_per_word) in
        let from_t = if R.int rng 3 = 0 then R.float rng period else 0. in
        let until_t =
          if R.int rng 3 = 0 then from_t +. 0.001 +. R.float rng (3. *. period) else infinity
        in
        let ident =
          match R.int rng 3 with
          | 0 -> R.int rng 256
          | 1 -> 256 + R.int rng 768
          | _ -> 1024 + R.int rng 512
        in
        Media.Load.periodic ~jitter_frac:(R.float rng 0.5) ~from_t ~until_t
          ~node:(R.int rng (nodes + 2))
          ~ident ~words
          ~period:
            (Float.max
               (period /. float_of_int (2 + R.int rng 7))
               (2. *. float_of_int count *. frame))
          ())
  in
  let max_wait = if R.int rng 3 = 0 then period *. (0.1 +. R.float rng 1.) else infinity in
  Media.Bus.make ~frame_overhead ~retry_limit:(R.int rng 4) ~max_wait ~seed:(R.int rng 1_000_000)
    ~load ~name ~time_per_word ()

(* structural faults and bus faults, each present one time in three *)
let random_scenario rng ~architecture ~modeled ~horizon ~period =
  let operators =
    Array.of_list (List.map (Arch.operator_name architecture) (Arch.operators architecture))
  in
  let media = Array.of_list (List.map (Arch.medium_name architecture) (Arch.media architecture)) in
  let window () =
    let from_t = R.float rng horizon in
    (from_t, from_t +. 0.001 +. R.float rng (2. *. period))
  in
  let events =
    List.concat
      [
        maybe rng
          (Scenario.Processor_failstop
             { operator = R.choice rng operators; at = R.float rng horizon });
        (let from_t, until_t = window () in
         maybe rng (Scenario.Medium_outage { medium = R.choice rng media; from_t; until_t }));
        maybe rng (Scenario.Message_loss { medium = None; prob = R.float rng 0.4 });
        maybe rng
          (Scenario.Overrun_burst
             {
               start_prob = 0.3;
               stop_prob = 0.5;
               overrun_prob = 0.6;
               factor = 1.2 +. R.float rng 2.;
             });
        maybe rng (Scenario.Bus_corruption { medium = None; prob = R.float rng 0.4 });
        maybe rng
          (Scenario.Bus_off { operator = R.choice rng operators; at = R.float rng horizon });
      ]
  in
  let babbler =
    match modeled with
    | [] -> []
    | _ ->
        let from_t, until_t = window () in
        maybe rng
          (Scenario.Babbling_idiot
             {
               medium = R.choice rng (Array.of_list modeled);
               ident = R.int rng 256;
               words = 1 + R.int rng 4;
               period = period /. float_of_int (5 + R.int rng 20);
               from_t;
               until_t;
             })
  in
  Scenario.make ~name:"random" ~seed:(R.int rng 1_000_000) (events @ babbler)

let random_policy rng ~algorithm ~architecture ~durations ~nominal ~period =
  match R.int rng 4 with
  | 0 -> Recovery.disabled
  | 1 -> Recovery.make ~period ()
  | 2 ->
      (* retransmission without the heartbeat supervisor *)
      {
        (Recovery.make ~max_retries:(1 + R.int rng 3) ~period ()) with
        Recovery.heartbeat_timeout = 0.;
      }
  | _ ->
      let failover =
        try
          Degrade.failover_executives
            (Degrade.failover_table ~algorithm ~architecture ~durations ~nominal ())
        with Adq.Infeasible _ -> []
      in
      Recovery.make ~failover ~heartbeat_k:1 ~blackout:(R.float rng period) ~period ()

let law rng =
  match R.int rng 4 with
  | 0 -> Exec.Timing_law.Wcet
  | 1 -> Exec.Timing_law.Uniform
  | 2 -> Exec.Timing_law.Triangular (R.float rng 1.)
  | _ ->
      Exec.Timing_law.Gaussian { mean_frac = R.float rng 1.; sigma_frac = 0.1 +. R.float rng 0.3 }

(* [None] when the random problem has no schedule *)
let random_case seed =
  let rng = R.create seed in
  let architecture = (R.choice rng [| A.single_bus; A.gateway; A.mixed; A.mesh |]) rng in
  let period = 0.02 +. R.float rng 0.08 in
  let algorithm, durations = A.random_problem ~period rng architecture in
  Dur.fold durations ~init:[] ~f:(fun ~op ~operator ~wcet ~bcet:_ acc ->
      (op, operator, wcet) :: acc)
  |> List.sort compare
  |> List.iter (fun (op, operator, wcet) ->
         if R.int rng 2 = 0 then Dur.set_bcet durations ~op ~operator (R.float rng wcet));
  let strategy = if R.int rng 2 = 0 then Adq.Pressure else Adq.Earliest_finish in
  match Adq.run ~strategy ~algorithm ~architecture ~durations () with
  | exception Adq.Infeasible _ -> None
  | nominal ->
      let iterations = 3 + R.int rng 10 in
      let horizon = float_of_int iterations *. period in
      let modeled =
        List.filter_map
          (fun mid ->
            if Arch.medium_kind architecture mid = Arch.Bus && R.int rng 4 > 0 then
              Some (Arch.medium_name architecture mid)
            else None)
          (Arch.media architecture)
      in
      let nodes = Arch.operator_count architecture in
      let buses = List.map (fun name -> (name, random_bus rng ~name ~period ~nodes)) modeled in
      let scenario = random_scenario rng ~architecture ~modeled ~horizon ~period in
      let recovery = random_policy rng ~algorithm ~architecture ~durations ~nominal ~period in
      let condition_seed = R.int rng 1_000_000 in
      let config =
        {
          Machine.iterations;
          law = law rng;
          comm_jitter_frac = (if R.int rng 2 = 0 then R.float rng 0.5 else 0.);
          bcet_frac = R.float rng 1.;
          durations = (if R.int rng 2 = 0 then Some durations else None);
          overrun_prob = (if R.int rng 2 = 0 then R.float rng 0.3 else 0.);
          overrun_factor = 1.2 +. R.float rng 1.;
          seed = R.int rng 1_000_000;
          condition =
            (fun ~iteration ~var -> Hashtbl.hash (condition_seed, iteration, var) land 1);
          injection = Scenario.injection scenario ~architecture;
          recovery;
          bus_models = Scenario.apply_bus scenario ~architecture buses;
        }
      in
      Some (Cg.generate nominal, config)

let agrees_on seed =
  match random_case seed with None -> true | Some (exe, config) -> agrees ~config exe

(* the networked fork-join workload (adc -> 2N filters -> fusion -> dac
   on N nodes sharing one bus) over a loaded bus, as it is deployed *)
let networked_case n =
  let algorithm, architecture, durations = A.networked n in
  let schedule = Adq.run ~algorithm ~architecture ~durations () in
  let chatterers = List.filter (fun i -> i mod 3 = 0) (List.init n Fun.id) in
  let load =
    List.map
      (fun node ->
        Media.Load.periodic ~jitter_frac:0.3 ~node ~ident:(10 + node) ~words:4
          ~period:(0.01 *. float_of_int (List.length chatterers))
          ())
      chatterers
  in
  let bus =
    Media.Bus.make ~name:"bus" ~time_per_word:0.0002 ~frame_overhead:0.002 ~max_wait:0.5
      ~seed:(1000 + n) ~load ()
  in
  ( Cg.generate schedule,
    {
      Machine.default_config with
      iterations = 60;
      seed = n;
      durations = Some durations;
      bus_models = [ ("bus", bus) ];
    } )

let seeds = QCheck2.Gen.int_range 0 1_000_000

let oracle_tests =
  [
    qtest "random executives: the whole trace equals the oracle's" ~count:300 seeds agrees_on;
    test "the random executives reach every mechanism of the machine" (fun () ->
        let traces =
          List.filter_map
            (fun seed ->
              Option.map (fun (exe, config) -> Machine.run ~config exe) (random_case seed))
            (List.init 200 Fun.id)
        in
        let some what p = check_true what (List.exists p traces) in
        some "multi-hop transfers" (fun t ->
            List.exists (fun c -> c.Machine.ce_slot.Sched.cm_hop > 0) t.Machine.comms);
        some "skipped conditioned operations" (fun t ->
            List.exists (fun o -> o.Machine.oe_skipped) t.Machine.ops);
        some "dead operators" (fun t -> List.exists (fun o -> o.Machine.oe_failed) t.Machine.ops);
        some "lost transfers" (fun t -> t.Machine.lost_transfers > 0);
        some "stale reads" (fun t -> t.Machine.stale_reads > 0);
        some "retransmissions" (fun t -> t.Machine.retransmissions > 0);
        some "overruns" (fun t -> t.Machine.overruns > 0);
        some "a failover switch" (fun t -> t.Machine.switched_at <> None);
        some "frames dropped on a loaded bus" (fun t ->
            List.exists
              (fun (_, log) -> List.exists (fun c -> c.Media.Bus.c_dropped) log)
              t.Machine.bus_log));
    test "networked fork-join, N = 4..16: traces equal the oracle's and keep their digests"
      (fun () ->
        (* digests of [fingerprint] recorded from the executive before
           it resolved its slots once per run *)
        List.iter
          (fun (n, digest) ->
            let exe, config = networked_case n in
            let name = Printf.sprintf "N=%d" n in
            check_true name (agrees ~config exe);
            Alcotest.(check string)
              name digest
              (Digest.to_hex (Digest.string (fingerprint (Machine.run ~config exe)))))
          [
            (4, "91cfe59999d29a7683b0492422877bd8");
            (6, "cc5ac4d49d7d410605df696e7ecb69d1");
            (8, "e9e9277341553ea008060acd7de1ba30");
            (10, "dbf1969ded82543337f40250f09768fb");
            (12, "7d6912fa54ca6117945b574015855f6d");
            (14, "a6ea8d3139d7a630e64f0fbb0265aced");
            (16, "4cdc7bebafd501979a98a26dd51ca7b0");
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* per-run tables share no state across domains *)

(* every float of the summary as its bits, through [Marshal] *)
let robustness_bits (s : Fault.Robustness.summary) =
  let module R = Fault.Robustness in
  Marshal.to_string
    ( s.R.ideal_cost,
      s.R.nominal_cost,
      s.R.worst_degradation_pct,
      s.R.mean_degradation_pct,
      List.map
        (fun (o : R.outcome) ->
          ( (o.R.cost, o.R.degradation_pct, o.R.fits_period, o.R.infeasible),
            (o.R.lost_transfers, o.R.stale_reads, o.R.overruns),
            Option.map
              (fun (r : R.recovery_outcome) ->
                ( (r.R.retransmissions, r.R.recovered_transfers, r.R.stale_with, r.R.stale_without),
                  r.R.events,
                  (r.R.switch_time, r.R.post_switch_stale, r.R.recovered_cost, r.R.frozen_cost) ))
              o.R.recovery ))
        s.R.outcomes )
    []

let pool_tests =
  [
    test "bused, injected robustness runs are bit-for-bit equal on 1 and 2 domains" (fun () ->
        let procs = [ "P0"; "P1"; "P2" ] in
        let architecture = Arch.bus_topology ~latency:0.0005 ~time_per_word:0.0005 procs in
        let durations = Dur.create () in
        List.iter
          (fun (op, share) ->
            List.iter (fun operator -> Dur.set durations ~op ~operator (share *. 0.03)) procs)
          [ ("reference", 0.05); ("sample_y", 0.2); ("pid", 0.6); ("hold_u", 0.15) ];
        let bus_models =
          [
            ( "bus",
              Media.Bus.make ~name:"bus" ~time_per_word:0.0005 ~frame_overhead:0.001 ~seed:17
                ~load:
                  [
                    Media.Load.periodic ~jitter_frac:0.3 ~node:0 ~ident:40 ~words:2
                      ~period:0.004 ();
                    Media.Load.periodic ~jitter_frac:0.2 ~node:2 ~ident:600 ~words:4
                      ~period:0.007 ();
                  ]
                () );
          ]
        in
        let scenarios =
          [
            Scenario.make ~name:"loss" ~seed:5
              [ Scenario.Message_loss { medium = None; prob = 0.2 } ];
            Scenario.make ~name:"p1_down" ~seed:6
              [ Scenario.Processor_failstop { operator = "P1"; at = 0.3 } ];
            Scenario.make ~name:"noisy_bus" ~seed:7
              [ Scenario.Bus_corruption { medium = None; prob = 0.3 } ];
            Scenario.make ~name:"p2_bus_off" ~seed:8
              [ Scenario.Bus_off { operator = "P2"; at = 0.2 } ];
          ]
        in
        let evaluate pool =
          Fault.Robustness.evaluate ~iterations:40 ~pool
            ~recovery:(Recovery.make ~period:0.05 ())
            ~bus_models ~design:(Test_explore.dc_design ()) ~architecture ~durations
            ~scenarios ()
        in
        let with_pool domains f =
          let pool = Pool.create ~domains () in
          Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)
        in
        let one = with_pool 1 evaluate in
        let outcomes = one.Fault.Robustness.outcomes in
        check_true "transfers go stale"
          (List.exists (fun o -> o.Fault.Robustness.stale_reads > 0) outcomes);
        check_true "the policy retransmits"
          (List.exists
             (fun o ->
               match o.Fault.Robustness.recovery with
               | Some r -> r.Fault.Robustness.retransmissions > 0
               | None -> false)
             outcomes);
        let one = robustness_bits one in
        with_pool 2 (fun pool ->
            for round = 1 to 5 do
              check_true (Printf.sprintf "round %d" round) (robustness_bits (evaluate pool) = one)
            done));
  ]

let suites = [ ("exec.oracle", oracle_tests); ("exec.pool", pool_tests) ]

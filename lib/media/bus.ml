module Sched = Aaa.Schedule

type faults = {
  f_corrupted : ident:int -> node:int -> attempt:int -> seq:int -> bool;
  f_node_off : node:int -> time:float -> bool;
}

let no_faults =
  {
    f_corrupted = (fun ~ident:_ ~node:_ ~attempt:_ ~seq:_ -> false);
    f_node_off = (fun ~node:_ ~time:_ -> false);
  }

type config = {
  b_name : string;
  b_time_per_word : float;
  b_frame_overhead : float;
  b_retry_limit : int;
  b_max_wait : float;
  b_seed : int;
  b_load : Load.stream list;
  b_faults : faults;
}

let bad fmt = Printf.ksprintf invalid_arg ("[MEDIA004] " ^^ fmt)

let validate cfg =
  if not (cfg.b_time_per_word > 0.) then
    bad "bus %S: time per word %g is not positive" cfg.b_name
      cfg.b_time_per_word;
  if not (cfg.b_frame_overhead >= 0.) then
    bad "bus %S: frame overhead %g is negative" cfg.b_name cfg.b_frame_overhead;
  if cfg.b_retry_limit < 0 then
    bad "bus %S: retry limit %d is negative" cfg.b_name cfg.b_retry_limit;
  if not (cfg.b_max_wait > 0.) then
    bad "bus %S: max wait %g is not positive" cfg.b_name cfg.b_max_wait;
  List.iter Load.validate cfg.b_load

let make ?(frame_overhead = 0.) ?(retry_limit = 3) ?(max_wait = infinity)
    ?(seed = 0) ?(load = []) ?(faults = no_faults) ~name ~time_per_word () =
  let cfg =
    {
      b_name = name;
      b_time_per_word = time_per_word;
      b_frame_overhead = frame_overhead;
      b_retry_limit = retry_limit;
      b_max_wait = max_wait;
      b_seed = seed;
      b_load = load;
      b_faults = faults;
    }
  in
  validate cfg;
  cfg

let frame_time cfg ~words =
  cfg.b_frame_overhead +. (float_of_int words *. cfg.b_time_per_word)

let slot_identifier (c : Sched.comm_slot) =
  let h =
    List.fold_left
      (fun h v -> ((h * 31) + v + 1) land 0x3FFFFFFF)
      17
      [
        (fst c.Sched.cm_src :> int);
        snd c.Sched.cm_src;
        (fst c.Sched.cm_dst :> int);
        snd c.Sched.cm_dst + 1;
        c.Sched.cm_hop;
      ]
  in
  0x100 lor (h mod 0x300)

type completion = {
  c_ident : int;
  c_node : int;
  c_release : float;
  c_start : float;
  c_finish : float;
  c_attempts : int;
  c_dropped : bool;
  c_background : bool;
}

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
  streams : Load.stream array;
  next_k : int array;  (* per-stream next frame number to release *)
  next_release : float array;
      (* per-stream release instant of frame [next_k]; [Load.release]
         is pure, so it is recomputed only when the cursor advances *)
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
    next_release = Array.mapi (fun i s -> Load.release ~seed:cfg.b_seed ~index:i s 0) streams;
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
      let r = t.next_release.(i) in
      if r < s.Load.l_until && r < !best then best := r)
    t.streams;
  !best

(* Materialise every background frame released up to [upto]. *)
let refill t ~upto =
  Array.iteri
    (fun i s ->
      let continue_ = ref true in
      while !continue_ do
        let k = t.next_k.(i) in
        let r = t.next_release.(i) in
        if r >= s.Load.l_until || r > upto then continue_ := false
        else begin
          t.next_k.(i) <- k + 1;
          t.next_release.(i) <- Load.release ~seed:t.cfg.b_seed ~index:i s (k + 1);
          if not (node_off t ~node:s.Load.l_node ~time:r) then
            t.queue <-
              {
                q_ident = s.Load.l_ident;
                q_node = s.Load.l_node;
                q_release = r;
                q_first_release = r;
                q_duration = frame_time t.cfg ~words:s.Load.l_words;
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
let busy_time t = t.busy
let utilization t ~at = if at > 0. then t.busy /. at else 0.

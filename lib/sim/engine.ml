module G = Dataflow.Graph
module B = Dataflow.Block

type delivery = { target : int; port : int }

type probe_rec = { pr_block : int; pr_port : int; trace : Trace.t }

(* The simulation is *compiled* at [create] time into flat runtime
   tables so the two inner loops (event delivery and the ODE
   right-hand side) run without graph lookups and without steady-state
   allocation:

   - the engine owns every block's output rows, allocated once from
     [out_widths]; [eval_block] copies what [outputs] returns into them,
     so a block may return a buffer it reuses.  Each input of
     [ctx.inputs] is wired once, at [create], to its source row, and
     precomputed delivery arrays ([listeners] / [self_deliv]) replace
     the per-call [G.event_listeners] queries;
   - every block gets one reusable {!B.context} whose [cstate] array is
     refreshed in place before each callback;
   - output re-evaluation is incremental: delivering an event marks the
     target block (and its feedthrough closure) dirty, and only dirty
     blocks are re-evaluated, in topological order — always-active
     blocks stay fresh through the integration observers, and blocks
     whose outputs can drift with continuous state or time without
     being always-active ([drift_ids]) are re-marked at every instant;
   - integration uses {!Numerics.Ode.integrate_inplace} with a
     persistent workspace and scratch state vectors, and its right-hand
     side re-evaluates only the always-active blocks the derivatives
     read ([rhs_ids]); the observer still refreshes all of them at every
     accepted step;
   - probe traces and the event log store flat floats and ints, not
     one heap object per sample or delivery, and keep their storage
     across [reset];
   - the per-call copies are element loops: [Array.blit] is a C call.

   [debug = true] restores the seed semantics — a full output sweep at
   every delivery, the allocating integrator and per-call output-shape
   validation — and is the reference the golden-equivalence tests
   compare against. *)

type t = {
  graph : G.t;
  blocks : B.t array;
  meth : Numerics.Ode.method_;
  max_step : float option;
  debug : bool;
  order : int array; (* output-evaluation order (feedthrough topo) *)
  priority : int array; (* static activation priority per block *)
  cs_offset : int array; (* continuous-state layout *)
  cs_len : int array;
  total_cs : int;
  cstate : float array;
  outputs : float array array array;
  queue : delivery Event_queue.t;
  (* compiled wiring *)
  listeners : delivery array array array; (* block, event-out port *)
  self_deliv : delivery array array; (* block, event-in port *)
  (* reusable per-block callback state *)
  cs_buf : float array array; (* ctx.cstate backing stores *)
  ctxs : B.context array;
  (* incremental re-evaluation *)
  dirty : bool array;
  dirty_succs : int array array; (* feedthrough data successors *)
  drift_ids : int array; (* re-marked dirty at every instant *)
  mutable any_dirty : bool;
  validated : bool array; (* output shapes checked once *)
  (* integration scratch *)
  active_ids : int array; (* always-active blocks, in eval order *)
  rhs_ids : int array; (* the subset the derivatives read, in eval order *)
  deriv_ids : int array; (* blocks with continuous state, by id *)
  surf_ids : int array; (* blocks with surfaces, by id *)
  with_surfaces : bool;
  ws : Numerics.Ode.workspace;
  x_buf : float array; (* state vector handed to the integrator *)
  xa_buf : float array; (* segment start state (surface marching) *)
  xw_buf : float array; (* segment work state (surface marching) *)
  surf_a : float array array; (* surface-value scratch (3 snapshots) *)
  surf_b : float array array;
  surf_m : float array array;
  mutable rhs_ip : Numerics.Ode.rhs_inplace;
  mutable obs_record : float -> float array -> unit;
  mutable time : float;
  mutable probes : (string * probe_rec) list; (* newest first *)
  mutable probe_arr : probe_rec array; (* frozen at start, registration order *)
  (* event log: delivery i is (log_time.(i), log_block.(i), log_port.(i))
     for i < nsteps *)
  mutable log_time : float array;
  mutable log_block : int array;
  mutable log_port : int array;
  mutable nsteps : int;
  mutable nrhs : int; (* right-hand-side evaluations *)
  mutable nevals : int; (* [outputs] calls *)
  mutable started : bool;
}

(* Linearise the full data-dependency graph to obtain activation
   priorities.  Kahn's algorithm; when only cyclic nodes remain
   (feedback loops), the node with the smallest residual in-degree and
   then smallest id is removed, which breaks the cycle
   deterministically. *)
let activation_priorities graph n =
  let indegree = Array.make n 0 in
  let succs = Array.make n [] in
  List.iter
    (fun (((sb : G.block_id), _), ((db : G.block_id), _)) ->
      let sb = (sb :> int) and db = (db :> int) in
      if sb <> db then begin
        succs.(sb) <- db :: succs.(sb);
        indegree.(db) <- indegree.(db) + 1
      end)
    (G.data_links graph);
  let removed = Array.make n false in
  let priority = Array.make n 0 in
  for rank = 0 to n - 1 do
    (* pick the best remaining node: zero in-degree if possible *)
    let best = ref (-1) in
    for id = n - 1 downto 0 do
      if not removed.(id) then
        if !best = -1 || indegree.(id) < indegree.(!best)
           || (indegree.(id) = indegree.(!best) && id < !best)
        then best := id
    done;
    let id = !best in
    removed.(id) <- true;
    priority.(id) <- rank;
    List.iter (fun succ -> if not removed.(succ) then indegree.(succ) <- indegree.(succ) - 1) succs.(id)
  done;
  priority

let empty_floats : float array = [||]

let create ?(meth = Numerics.Ode.default_method) ?max_step ?(debug = false) graph =
  G.validate graph;
  let n = G.block_count graph in
  let blocks = Array.of_list (List.map (G.block graph) (G.block_ids graph)) in
  let order = Array.of_list (List.map (fun id -> ((id : G.block_id) :> int)) (G.eval_order graph)) in
  let priority = activation_priorities graph n in
  let cs_len = Array.map (fun b -> Array.length b.B.cstate0) blocks in
  let cs_offset = Array.make n 0 in
  let total = ref 0 in
  Array.iteri
    (fun id len ->
      cs_offset.(id) <- !total;
      total := !total + len)
    cs_len;
  let outputs =
    Array.map (fun b -> Array.map (fun w -> Array.make w 0.) b.B.out_widths) blocks
  in
  (* wiring tables: validate guarantees every input port is wired *)
  let in_src_block =
    Array.init n (fun id -> Array.make (Array.length blocks.(id).B.in_widths) 0)
  in
  let in_src_port =
    Array.init n (fun id -> Array.make (Array.length blocks.(id).B.in_widths) 0)
  in
  Array.iteri
    (fun id b ->
      for p = 0 to Array.length b.B.in_widths - 1 do
        match G.data_source graph (G.id_of_int graph id) p with
        | Some (sb, sp) ->
            in_src_block.(id).(p) <- (sb :> int);
            in_src_port.(id).(p) <- sp
        | None -> assert false
      done)
    blocks;
  let listeners =
    Array.init n (fun id ->
        Array.init blocks.(id).B.event_outputs (fun p ->
            Array.of_list
              (List.map
                 (fun ((db : G.block_id), dp) -> { target = (db :> int); port = dp })
                 (G.event_listeners graph (G.id_of_int graph id) p))))
  in
  let self_deliv =
    Array.init n (fun id ->
        Array.init blocks.(id).B.event_inputs (fun p -> { target = id; port = p }))
  in
  let cs_buf =
    Array.init n (fun id -> if cs_len.(id) = 0 then empty_floats else Array.make cs_len.(id) 0.)
  in
  (* each input is wired once to its source's output row, which the
     engine owns and [eval_block] only ever overwrites in place *)
  let ctxs =
    Array.init n (fun id ->
        let inputs =
          Array.mapi (fun p sb -> outputs.(sb).(in_src_port.(id).(p))) in_src_block.(id)
        in
        { B.time = 0.; inputs; cstate = cs_buf.(id) })
  in
  (* feedthrough data successors, for dirty propagation *)
  let dirty_succs =
    let seen = Array.make n (-1) in
    Array.init n (fun sb ->
        let acc = ref [] in
        List.iter
          (fun (((sb' : G.block_id), _), ((db : G.block_id), _)) ->
            let sb' = (sb' :> int) and db = (db :> int) in
            if sb' = sb && db <> sb && blocks.(db).B.feedthrough && seen.(db) <> sb
            then begin
              seen.(db) <- sb;
              acc := db :: !acc
            end)
          (G.data_links graph);
        Array.of_list !acc)
  in
  (* blocks whose stored outputs can go stale without any event: a
     non-always-active block that either carries continuous state or is
     feedthrough (its inputs may drift continuously).  The seed
     semantics re-evaluated every block at every instant; these are the
     ones for which that sweep could observe a change. *)
  let drift_ids =
    Array.of_list
      (List.filter
         (fun id ->
           (not blocks.(id).B.always_active)
           && (blocks.(id).B.feedthrough || cs_len.(id) > 0))
         (List.init n Fun.id))
  in
  let active_ids =
    Array.of_list
      (List.filter (fun id -> blocks.(id).B.always_active) (Array.to_list order))
  in
  let deriv_ids =
    Array.of_list (List.filter (fun id -> cs_len.(id) > 0) (List.init n Fun.id))
  in
  (* the always-active blocks reachable backwards from a derivative's
     inputs through always-active sources only.  A block that is not
     always-active cuts the walk: no event fires during integration, so
     its stored outputs stay constant there.  Every other always-active
     block is read by no derivative, so skipping it in the right-hand
     side changes no state; the observer refreshes it at each accepted
     step. *)
  let rhs_ids =
    let read = Array.make n false in
    let rec visit id =
      Array.iter
        (fun src ->
          if blocks.(src).B.always_active && not read.(src) then begin
            read.(src) <- true;
            visit src
          end)
        in_src_block.(id)
    in
    Array.iter visit deriv_ids;
    Array.of_list (List.filter (fun id -> read.(id)) (Array.to_list active_ids))
  in
  let surf_ids =
    Array.of_list
      (List.filter (fun id -> blocks.(id).B.surfaces > 0) (List.init n Fun.id))
  in
  let surf_scratch () =
    Array.init n (fun id ->
        if blocks.(id).B.surfaces = 0 then empty_floats
        else Array.make blocks.(id).B.surfaces 0.)
  in
  let engine =
    {
      graph;
      blocks;
      meth;
      max_step;
      debug;
      order;
      priority;
      cs_offset;
      cs_len;
      total_cs = !total;
      cstate = Array.make !total 0.;
      outputs;
      queue = Event_queue.create ();
      listeners;
      self_deliv;
      cs_buf;
      ctxs;
      dirty = Array.make n false;
      dirty_succs;
      drift_ids;
      any_dirty = false;
      validated = Array.make n false;
      active_ids;
      rhs_ids;
      deriv_ids;
      surf_ids;
      with_surfaces = Array.length surf_ids > 0;
      ws = Numerics.Ode.workspace !total;
      x_buf = Array.make !total 0.;
      xa_buf = Array.make !total 0.;
      xw_buf = Array.make !total 0.;
      surf_a = surf_scratch ();
      surf_b = surf_scratch ();
      surf_m = surf_scratch ();
      rhs_ip = (fun _ _ ~dx:_ -> ());
      obs_record = (fun _ _ -> ());
      time = 0.;
      probes = [];
      probe_arr = [||];
      log_time = Array.make 64 0.;
      log_block = Array.make 64 0;
      log_port = Array.make 64 0;
      nsteps = 0;
      nrhs = 0;
      nevals = 0;
      started = false;
    }
  in
  engine

(* ------------------------------------------------------------------ *)
(* reusable callback contexts *)

(* [dst.(doff + i) <- src.(soff + i)] for [i < len], as a loop:
   [Array.blit] is a C call, too dear for the few floats copied per
   callback *)
let copy_floats (src : float array) soff (dst : float array) doff len =
  for i = 0 to len - 1 do
    dst.(doff + i) <- src.(soff + i)
  done

(* Prepares block [id]'s context for a callback at [time]: continuous-
   state slice copied in.  All callbacks receive the same context
   record, whose inputs are the source blocks' output rows. *)
let load_ctx e id time =
  let len = e.cs_len.(id) in
  if len > 0 then copy_floats e.cstate e.cs_offset.(id) e.cs_buf.(id) 0 len;
  let ctx = e.ctxs.(id) in
  ctx.B.time <- time;
  ctx

(* ------------------------------------------------------------------ *)
(* output evaluation: full sweep (debug / start) and dirty-set *)

let eval_block e time id =
  let b = e.blocks.(id) in
  let ctx = load_ctx e id time in
  let out = b.B.outputs ctx in
  e.nevals <- e.nevals + 1;
  let outs = e.outputs.(id) in
  if e.debug || not e.validated.(id) then begin
    if Array.length out <> Array.length b.B.out_widths then
      failwith (Printf.sprintf "Block %S returned wrong output port count" b.B.name);
    Array.iteri
      (fun p v ->
        if Array.length v <> b.B.out_widths.(p) then
          failwith (Printf.sprintf "Block %S output %d has wrong width" b.B.name p))
      out;
    e.validated.(id) <- true
  end;
  (* copy into the engine's rows: the block may reuse what it returned *)
  for p = 0 to Array.length outs - 1 do
    let src = out.(p) and dst = outs.(p) in
    if src != dst then copy_floats src 0 dst 0 (Array.length dst)
  done

let eval_outputs e time =
  for i = 0 to Array.length e.order - 1 do
    eval_block e time e.order.(i)
  done;
  Array.fill e.dirty 0 (Array.length e.dirty) false;
  e.any_dirty <- false

let rec mark_dirty e id =
  if not e.dirty.(id) then begin
    e.dirty.(id) <- true;
    e.any_dirty <- true;
    let succs = e.dirty_succs.(id) in
    for i = 0 to Array.length succs - 1 do
      mark_dirty e succs.(i)
    done
  end

let mark_drift e =
  let d = e.drift_ids in
  for i = 0 to Array.length d - 1 do
    mark_dirty e d.(i)
  done

(* Re-evaluates exactly the dirty blocks, in topological order (an
   upstream dirty block is refreshed before a downstream one reads
   it).  In debug mode this degenerates to the seed's full sweep. *)
let refresh_dirty e time =
  if e.debug then eval_outputs e time
  else if e.any_dirty then begin
    let order = e.order in
    for i = 0 to Array.length order - 1 do
      let id = order.(i) in
      if e.dirty.(id) then begin
        eval_block e time id;
        e.dirty.(id) <- false
      end
    done;
    e.any_dirty <- false
  end

let eval_ids e time ids =
  for i = 0 to Array.length ids - 1 do
    eval_block e time ids.(i)
  done

let eval_always_active e time = eval_ids e time e.active_ids

let record_probes e time =
  let ps = e.probe_arr in
  for i = 0 to Array.length ps - 1 do
    let p = ps.(i) in
    Trace.record p.trace time e.outputs.(p.pr_block).(p.pr_port)
  done

(* ------------------------------------------------------------------ *)
(* event scheduling *)

let schedule_actions e id time actions =
  List.iter
    (fun action ->
      match action with
      | B.Emit { port; delay } ->
          if delay < 0. then
            failwith (Printf.sprintf "Block %S emitted a negative delay" e.blocks.(id).B.name);
          let ds = e.listeners.(id).(port) in
          let t = time +. delay in
          for i = 0 to Array.length ds - 1 do
            let d = ds.(i) in
            Event_queue.push e.queue ~time:t ~priority:e.priority.(d.target) d
          done
      | B.Self { port; delay } ->
          if delay < 0. then
            failwith (Printf.sprintf "Block %S scheduled a negative self delay" e.blocks.(id).B.name);
          Event_queue.push e.queue ~time:(time +. delay) ~priority:e.priority.(id)
            e.self_deliv.(id).(port)
      | B.Set_cstate x ->
          if Array.length x <> e.cs_len.(id) then
            failwith
              (Printf.sprintf "Block %S: Set_cstate dimension mismatch" e.blocks.(id).B.name);
          Array.blit x 0 e.cstate e.cs_offset.(id) e.cs_len.(id);
          mark_dirty e id)
    actions

let prime e =
  Array.iteri (fun id b -> schedule_actions e id 0. b.B.initial_actions) e.blocks

let add_probe e ~name ~block ~port =
  if e.started then invalid_arg "Engine.add_probe: simulation already started";
  if List.mem_assoc name e.probes then
    invalid_arg (Printf.sprintf "Engine.add_probe: duplicate probe %S" name);
  let id = ((block : G.block_id) :> int) in
  let b = e.blocks.(id) in
  if port < 0 || port >= Array.length b.B.out_widths then
    invalid_arg (Printf.sprintf "Engine.add_probe: %S has no output port %d" b.B.name port);
  let trace = Trace.create ~width:b.B.out_widths.(port) in
  e.probes <- (name, { pr_block = id; pr_port = port; trace }) :: e.probes

let time_eps t = 1e-9 *. (1. +. Float.abs t)

let log_delivery e t target port =
  let i = e.nsteps in
  if i = Array.length e.log_time then begin
    let grow a fill =
      let a' = Array.make (2 * i) fill in
      Array.blit a 0 a' 0 i;
      a'
    in
    e.log_time <- grow e.log_time 0.;
    e.log_block <- grow e.log_block 0;
    e.log_port <- grow e.log_port 0
  end;
  e.log_time.(i) <- t;
  e.log_block.(i) <- target;
  e.log_port.(i) <- port;
  e.nsteps <- i + 1

(* Deliver every event pending at instant [t] (within float tolerance),
   including zero-delay events emitted during the instant itself.
   Only blocks whose outputs may have changed are re-evaluated. *)
let process_instant e t =
  mark_drift e;
  let eps = time_eps t in
  let continue_ = ref true in
  while !continue_ do
    if Event_queue.next_time e.queue ~default:infinity <= t +. eps then begin
      let { target; port } = Event_queue.pop_exn e.queue in
      let b = e.blocks.(target) in
      refresh_dirty e t;
      let handler =
        match b.B.on_event with
        | Some h -> h
        | None ->
            failwith (Printf.sprintf "Block %S received an event but has no handler" b.B.name)
      in
      let ctx = load_ctx e target t in
      let actions = handler ctx ~port in
      log_delivery e t target port;
      mark_dirty e target;
      schedule_actions e target t actions
    end
    else continue_ := false
  done;
  refresh_dirty e t;
  record_probes e t

(* ------------------------------------------------------------------ *)
(* continuous integration *)

(* allocating right-hand side, as in the seed engine (debug mode) *)
let make_rhs_alloc e =
  fun tt x ->
    e.nrhs <- e.nrhs + 1;
    Array.blit x 0 e.cstate 0 e.total_cs;
    eval_always_active e tt;
    let dx = Array.make e.total_cs 0. in
    let ids = e.deriv_ids in
    for i = 0 to Array.length ids - 1 do
      let id = ids.(i) in
      let b = e.blocks.(id) in
      let deriv = match b.B.derivatives with Some d -> d | None -> assert false in
      let ctx = load_ctx e id tt in
      let d = deriv ctx in
      Array.blit d 0 dx e.cs_offset.(id) e.cs_len.(id)
    done;
    dx

(* persistent closures for the compiled path, installed once *)
let install_hot_closures e =
  e.rhs_ip <-
    (fun tt x ~dx ->
      e.nrhs <- e.nrhs + 1;
      copy_floats x 0 e.cstate 0 e.total_cs;
      eval_ids e tt e.rhs_ids;
      let ids = e.deriv_ids in
      for i = 0 to Array.length ids - 1 do
        let id = ids.(i) in
        let b = e.blocks.(id) in
        let deriv = match b.B.derivatives with Some d -> d | None -> assert false in
        let ctx = load_ctx e id tt in
        let d = deriv ctx in
        copy_floats d 0 dx e.cs_offset.(id) e.cs_len.(id)
      done);
  e.obs_record <-
    (fun tt x ->
      copy_floats x 0 e.cstate 0 e.total_cs;
      eval_always_active e tt;
      record_probes e tt)

(* values of every declared surface at the engine's current state,
   written into the caller's scratch snapshot (assumes [e.cstate] and
   the target time are current) *)
let surface_values e time ~into =
  eval_always_active e time;
  let ids = e.surf_ids in
  for i = 0 to Array.length ids - 1 do
    let id = ids.(i) in
    let b = e.blocks.(id) in
    let crossings = match b.B.crossings with Some c -> c | None -> assert false in
    let ctx = load_ctx e id time in
    let v = crossings ctx in
    if Array.length v <> b.B.surfaces then
      failwith (Printf.sprintf "Block %S returned wrong surface count" b.B.name);
    Array.blit v 0 into.(id) 0 b.B.surfaces
  done

let sign v = if v > 0. then 1 else if v < 0. then -1 else 0

(* A surface fires when it leaves a nonzero sign: −→+, +→−, −→0 or
   +→0.  Starting from exactly zero does not fire, so a handler that
   resets its surface to zero is not re-triggered immediately. *)
let surface_fired va vb = sign va <> 0 && sign vb <> sign va

let crossed e before after =
  let hit = ref false in
  let ids = e.surf_ids in
  for i = 0 to Array.length ids - 1 do
    let id = ids.(i) in
    let vb = before.(id) and va = after.(id) in
    for s = 0 to Array.length vb - 1 do
      if surface_fired vb.(s) va.(s) then hit := true
    done
  done;
  !hit

(* Integrate from the current time toward [t1].  Returns [`Reached]
   when [t1] was attained, or [`Interrupted] when a zero-crossing was
   located and handled before [t1]: the caller must process the
   instant (crossing handlers may have emitted events) and re-enter. *)
let integrate_to e t1 =
  if t1 <= e.time then `Reached
  else if (not e.with_surfaces) && e.total_cs = 0 then begin
    e.time <- t1;
    eval_always_active e t1;
    record_probes e t1;
    `Reached
  end
  else if not e.with_surfaces then begin
    (if e.debug then begin
       let rhs = make_rhs_alloc e in
       let observer tt x =
         Array.blit x 0 e.cstate 0 e.total_cs;
         eval_always_active e tt;
         record_probes e tt
       in
       let x0 = Array.copy e.cstate in
       let xf =
         Numerics.Ode.integrate ~meth:e.meth ?max_step:e.max_step ~observer rhs ~t0:e.time
           ~t1 x0
       in
       Array.blit xf 0 e.cstate 0 e.total_cs
     end
     else begin
       copy_floats e.cstate 0 e.x_buf 0 e.total_cs;
       Numerics.Ode.integrate_inplace ~meth:e.meth ?max_step:e.max_step
         ~observer:e.obs_record ~ws:e.ws e.rhs_ip ~t0:e.time ~t1 e.x_buf;
       copy_floats e.x_buf 0 e.cstate 0 e.total_cs
     end);
    e.time <- t1;
    `Reached
  end
  else begin
    (* surface-monitored integration: march in sub-steps, bisect on a
       sign change, deliver the crossing and stop *)
    let rhs_alloc = if e.debug then Some (make_rhs_alloc e) else None in
    let span = t1 -. e.time in
    let sub_step =
      match e.max_step with Some h -> Float.min h (span /. 4.) | None -> span /. 32.
    in
    (* integrate the segment [t0, t1] from [xa_buf] into [xw_buf] *)
    let integrate_segment ~t0 ~t1 =
      Array.blit e.xa_buf 0 e.xw_buf 0 e.total_cs;
      if e.total_cs > 0 then
        match rhs_alloc with
        | Some rhs ->
            let xf = Numerics.Ode.integrate ~meth:e.meth rhs ~t0 ~t1 (Array.copy e.xa_buf) in
            Array.blit xf 0 e.xw_buf 0 e.total_cs
        | None -> Numerics.Ode.integrate_inplace ~meth:e.meth ~ws:e.ws e.rhs_ip ~t0 ~t1 e.xw_buf
    in
    let restore tt =
      Array.blit e.xw_buf 0 e.cstate 0 e.total_cs;
      eval_always_active e tt
    in
    let result = ref `Reached in
    let continue_ = ref true in
    while !continue_ && t1 -. e.time > 1e-15 *. (1. +. Float.abs t1) do
      let ta = e.time in
      Array.blit e.cstate 0 e.xa_buf 0 e.total_cs;
      surface_values e ta ~into:e.surf_a;
      let tb = Float.min t1 (ta +. sub_step) in
      integrate_segment ~t0:ta ~t1:tb;
      restore tb;
      surface_values e tb ~into:e.surf_b;
      if not (crossed e e.surf_a e.surf_b) then begin
        e.time <- tb;
        record_probes e tb
      end
      else begin
        (* bisect the earliest crossing within [ta, tb] *)
        let lo = ref ta and hi = ref tb in
        for _ = 1 to 50 do
          let mid = (!lo +. !hi) /. 2. in
          integrate_segment ~t0:ta ~t1:mid;
          restore mid;
          surface_values e mid ~into:e.surf_m;
          if crossed e e.surf_a e.surf_m then hi := mid else lo := mid
        done;
        let t_star = !hi in
        integrate_segment ~t0:ta ~t1:t_star;
        restore t_star;
        (* [surf_b] is free once a crossing is detected; reuse it for
           the located crossing snapshot *)
        surface_values e t_star ~into:e.surf_b;
        e.time <- t_star;
        record_probes e t_star;
        (* fire every surface that changed sign over [ta, t*] *)
        let ids = e.surf_ids in
        for i = 0 to Array.length ids - 1 do
          let id = ids.(i) in
          let b = e.blocks.(id) in
          let va = e.surf_a.(id) and vs = e.surf_b.(id) in
          for s = 0 to Array.length va - 1 do
            if surface_fired va.(s) vs.(s) then begin
              let handler =
                match b.B.on_crossing with Some h -> h | None -> assert false
              in
              let ctx = load_ctx e id t_star in
              let actions = handler ctx ~surface:s ~rising:(vs.(s) > va.(s)) in
              mark_dirty e id;
              schedule_actions e id t_star actions
            end
          done
        done;
        result := `Interrupted;
        continue_ := false
      end
    done;
    !result
  end

let start_if_needed e =
  if not e.started then begin
    install_hot_closures e;
    e.probe_arr <- Array.of_list (List.rev_map snd e.probes);
    Array.iter (fun b -> b.B.reset ()) e.blocks;
    Array.iteri
      (fun id b -> Array.blit b.B.cstate0 0 e.cstate e.cs_offset.(id) e.cs_len.(id))
      e.blocks;
    prime e;
    eval_outputs e 0.;
    record_probes e 0.;
    e.started <- true
  end

let run ?(t_end = 1.) e =
  start_if_needed e;
  let continue_ = ref true in
  while !continue_ do
    let tt = Event_queue.next_time e.queue ~default:infinity in
    if tt <= t_end +. time_eps t_end then begin
      let tt = Float.max tt e.time in
      match integrate_to e tt with
      | `Reached -> process_instant e tt
      | `Interrupted ->
          (* a zero-crossing fired before [tt]; deliver whatever it
             emitted at the crossing instant, then re-examine *)
          process_instant e e.time
    end
    else
      match integrate_to e t_end with
      | `Reached -> continue_ := false
      | `Interrupted -> process_instant e e.time
  done

let reset e =
  Event_queue.clear e.queue;
  e.time <- 0.;
  e.nsteps <- 0;
  e.nrhs <- 0;
  e.nevals <- 0;
  e.started <- false;
  List.iter (fun (_, p) -> Trace.clear p.trace) e.probes

let now e = e.time

let probe e name =
  match List.assoc_opt name e.probes with
  | Some p -> p.trace
  | None -> raise Not_found

let probe_component e name j = Trace.component (probe e name) j

let event_log e =
  List.init e.nsteps (fun i ->
      (e.log_time.(i), e.blocks.(e.log_block.(i)).B.name, e.log_port.(i)))

let activations e ~block =
  let id = ((block : G.block_id) :> int) in
  let acc = ref [] in
  for i = e.nsteps - 1 downto 0 do
    if e.log_block.(i) = id then acc := e.log_time.(i) :: !acc
  done;
  !acc

let steps e = e.nsteps

let rhs_evals e = e.nrhs

let block_evals e = e.nevals

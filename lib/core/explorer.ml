module Grid = Explore.Grid
module Key = Explore.Key

type outcome = {
  o_cost : float;
  o_io_latency : float;
  o_makespan : float;
  o_fits_period : bool;
  o_infeasible : bool;
}

type point = {
  design_name : string;
  ts : float;
  platform : string;
  price : float;
  fraction : float;
  mode : Translator.Delay_graph.mode;
  ideal_cost : float;
  cost : float;
  degradation_pct : float;
  io_latency : float;
  makespan : float;
  fits_period : bool;
  infeasible : bool;
}

let design_fields (design : Design.t) alg_key =
  [
    design.Design.name;
    Key.float design.Design.ts;
    Key.float design.Design.horizon;
    alg_key;
  ]

let ideal_key design alg_key = Key.digest (("scilife.ideal" :: design_fields design alg_key))

let candidate_key ?strategy design alg_key (c : Grid.candidate) durations =
  Key.digest
    ("scilife.impl"
     :: design_fields design alg_key
    @ [
        Key.architecture c.Grid.platform.Grid.architecture;
        Key.durations durations;
        Key.mode c.Grid.mode;
        Key.strategy strategy;
      ])

(* ------------------------------------------------------------------ *)
(* per-domain implementation reuse

   Along the seeds axis of a grid, consecutive candidates share the
   (architecture, durations, strategy) cell and differ only in the
   jitter seed — so the adequation can be done once per cell per
   domain, and the co-simulation engine compiled once per cell and
   timing law ([Session]) and reseeded per candidate.  One slot per
   domain is enough because the grid's row-major order keeps seeds
   innermost and the pool hands out consecutive candidates together.
   The session lives beside the implementation it was compiled from,
   so reusing it needs no digest of the schedule. *)

type mapped = {
  impl : Methodology.implementation;
  mutable session : ((Exec.Timing_law.t * float) * Session.t) option;
      (* compiled for this (law, bcet_frac) *)
}

type mapping = Mapped of mapped | Unmappable

let impl_slot : (string * mapping) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let impl_key ?strategy design alg_key (c : Grid.candidate) durations =
  Key.digest
    ("scilife.mapping"
     :: design_fields design alg_key
    @ [
        Key.architecture c.Grid.platform.Grid.architecture;
        Key.durations durations;
        Key.strategy strategy;
      ])

let obtain_mapping ?strategy design alg_key (c : Grid.candidate) durations =
  let k = impl_key ?strategy design alg_key c durations in
  let r = Domain.DLS.get impl_slot in
  match !r with
  | Some (k', m) when String.equal k' k -> m
  | _ ->
      let m =
        match
          Methodology.implement ?strategy ~design
            ~architecture:c.Grid.platform.Grid.architecture ~durations ()
        with
        | impl -> Mapped { impl; session = None }
        | exception Aaa.Adequation.Infeasible _ -> Unmappable
      in
      r := Some (k, m);
      m

let infeasible_outcome =
  {
    o_cost = Float.infinity;
    o_io_latency = Float.infinity;
    o_makespan = Float.infinity;
    o_fits_period = false;
    o_infeasible = true;
  }

let outcome_of_impl (impl : Methodology.implementation) cost =
  let static = impl.Methodology.static in
  {
    o_cost = cost;
    o_io_latency = Translator.Temporal_model.io_latency static;
    o_makespan = static.Translator.Temporal_model.makespan;
    o_fits_period = static.Translator.Temporal_model.fits_period;
    o_infeasible = false;
  }

let rebuilt_cost (design : Design.t) mode impl =
  design.Design.cost (Methodology.simulate_implemented ~mode design impl)

(* a jittered candidate reseeds + resets the slot's compiled session
   (compiled on first use and whenever the timing law changes) instead
   of rebuilding the diagram and delay graph — bit-for-bit equal to
   the rebuild by the [Session] determinism contract *)
let mapped_cost design m mode =
  match mode with
  | Translator.Delay_graph.Jittered { law; bcet_frac; seed } ->
      let s =
        match m.session with
        | Some (timing, s) when timing = (law, bcet_frac) -> s
        | _ ->
            let s = Session.create ~law ~bcet_frac ~design ~implementation:m.impl () in
            m.session <- Some ((law, bcet_frac), s);
            s
      in
      Session.cost s ~seed
  | mode -> rebuilt_cost design mode m.impl

let eval_job ?cache ?strategy ~engine_reuse
    ((design : Design.t), alg_key, ideal_cost, (c : Grid.candidate)) =
  let memo key f =
    match cache with None -> f () | Some ca -> Explore.Cache.find_or_add ca ~key f
  in
  let durations = c.Grid.platform.Grid.durations_of c.Grid.fraction in
  let o =
    memo (candidate_key ?strategy design alg_key c durations) (fun () ->
        if engine_reuse then
          match obtain_mapping ?strategy design alg_key c durations with
          | Unmappable -> infeasible_outcome
          | Mapped m -> outcome_of_impl m.impl (mapped_cost design m c.Grid.mode)
        else
          match
            Methodology.implement ?strategy ~design
              ~architecture:c.Grid.platform.Grid.architecture ~durations ()
          with
          | impl -> outcome_of_impl impl (rebuilt_cost design c.Grid.mode impl)
          | exception Aaa.Adequation.Infeasible _ -> infeasible_outcome)
  in
  {
    design_name = design.Design.name;
    ts = design.Design.ts;
    platform = c.Grid.platform.Grid.label;
    price = c.Grid.platform.Grid.price;
    fraction = c.Grid.fraction;
    mode = c.Grid.mode;
    ideal_cost;
    cost = o.o_cost;
    degradation_pct =
      Control.Metrics.degradation_pct ~ideal:ideal_cost ~actual:o.o_cost;
    io_latency = o.o_io_latency;
    makespan = o.o_makespan;
    fits_period = o.o_fits_period;
    infeasible = o.o_infeasible;
  }

let prepare ?pool ?cache designs =
  let pool = match pool with Some p -> p | None -> Explore.Pool.default () in
  let memo key f =
    match cache with None -> f () | Some c -> Explore.Cache.find_or_add c ~key f
  in
  (* one extraction + ideal co-simulation per design (the periods axis) *)
  Explore.Pool.map pool
    (fun (design : Design.t) ->
      let _, algorithm, _ = Methodology.extract design in
      let alg_key = Key.algorithm algorithm in
      let ideal =
        memo (ideal_key design alg_key) (fun () ->
            {
              o_cost = design.Design.cost (Methodology.simulate_ideal design);
              o_io_latency = 0.;
              o_makespan = 0.;
              o_fits_period = true;
              o_infeasible = false;
            })
      in
      (design, alg_key, ideal.o_cost))
    designs

let evaluate ?pool ?cache ?strategy ?(engine_reuse = true) ~designs ~candidates
    () =
  if designs = [] then invalid_arg "Explorer.evaluate: no designs";
  if candidates = [] then invalid_arg "Explorer.evaluate: no candidates";
  let pool = match pool with Some p -> p | None -> Explore.Pool.default () in
  let prepared = prepare ~pool ?cache designs in
  let jobs =
    List.concat_map
      (fun (design, alg_key, ideal_cost) ->
        List.map (fun c -> (design, alg_key, ideal_cost, c)) candidates)
      prepared
  in
  Explore.Pool.map pool (eval_job ?cache ?strategy ~engine_reuse) jobs

(* ------------------------------------------------------------------ *)
(* streaming evaluation *)

type progress = {
  p_evaluated : int;
  p_feasible : int;
  p_infeasible : int;
  p_front : point list;
}

type summary = {
  s_evaluated : int;
  s_feasible : int;
  s_infeasible : int;
  s_front : point list;
  s_samples : (int * point) list;
}

type acc = {
  a_count : int;
  a_feasible : int;
  a_infeasible : int;
  a_front : point Explore.Pareto.Front.t;
  a_samples : (int * point) list;  (* newest first *)
}

let point_feasible p = (not p.infeasible) && p.fits_period && Float.is_finite p.cost

let front_points f =
  Explore.Pareto.sort_by ~objective:(fun p -> p.price)
    (Explore.Pareto.Front.elements f)

let evaluate_seq ?pool ?cache ?strategy ?(engine_reuse = true) ?snapshot_every
    ?snapshot ?(sample_every = 0) ~designs ~candidates () =
  if designs = [] then invalid_arg "Explorer.evaluate_seq: no designs";
  let pool = match pool with Some p -> p | None -> Explore.Pool.default () in
  let prepared = prepare ~pool ?cache designs in
  let jobs =
    Seq.concat_map
      (fun (design, alg_key, ideal_cost) ->
        Seq.map (fun c -> (design, alg_key, ideal_cost, c)) candidates)
      (List.to_seq prepared)
  in
  let reduce a p =
    (* runs strictly in input order on the submitting domain, so
       [a_count] is the point's global index *)
    let n = a.a_count in
    let a =
      if point_feasible p then
        {
          a with
          a_count = n + 1;
          a_feasible = a.a_feasible + 1;
          a_front =
            Explore.Pareto.Front.insert a.a_front [| p.price; p.cost |] p;
        }
      else
        {
          a with
          a_count = n + 1;
          a_infeasible = (a.a_infeasible + if p.infeasible then 1 else 0);
        }
    in
    if sample_every > 0 && n mod sample_every = 0 then
      { a with a_samples = (n, p) :: a.a_samples }
    else a
  in
  let snapshot =
    Option.map
      (fun cb ~evaluated a ->
        cb
          {
            p_evaluated = evaluated;
            p_feasible = a.a_feasible;
            p_infeasible = a.a_infeasible;
            p_front = front_points a.a_front;
          })
      snapshot
  in
  let a =
    Explore.Pool.map_reduce_seq ?snapshot_every ?snapshot pool
      ~map:(eval_job ?cache ?strategy ~engine_reuse)
      ~reduce
      ~init:
        {
          a_count = 0;
          a_feasible = 0;
          a_infeasible = 0;
          a_front = Explore.Pareto.Front.empty;
          a_samples = [];
        }
      jobs
  in
  {
    s_evaluated = a.a_count;
    s_feasible = a.a_feasible;
    s_infeasible = a.a_infeasible;
    s_front = front_points a.a_front;
    s_samples = List.rev a.a_samples;
  }

let feasible points =
  List.filter (fun p -> (not p.infeasible) && p.fits_period && Float.is_finite p.cost) points

let pareto points =
  Explore.Pareto.front ~objectives:(fun p -> [| p.price; p.cost |]) (feasible points)

let mode_tag = function
  | Translator.Delay_graph.Static_wcet -> "wcet"
  | Translator.Delay_graph.Jittered { seed; _ } -> Printf.sprintf "seed=%d" seed

let row p =
  Printf.sprintf "| %s | %g | %s | %.1f | %.2f | %s | %.6g | %.6g | %+.2f | %.4g | %s |"
    p.design_name p.ts p.platform p.price p.fraction (mode_tag p.mode) p.ideal_cost p.cost
    p.degradation_pct p.io_latency
    (if p.infeasible then "infeasible" else if p.fits_period then "yes" else "OVERRUNS")

let table points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "| design | Ts | platform | price | f | mode | ideal | cost | degr % | io lat | fits |\n";
  Buffer.add_string buf "|---|---|---|---|---|---|---|---|---|---|---|\n";
  List.iter (fun p -> Buffer.add_string buf (row p ^ "\n")) points;
  Buffer.contents buf

let markdown_section ?cache points =
  let front = pareto points in
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "## Design-space exploration";
  line "";
  line "%d candidate evaluations (%d feasible, %d on the Pareto front)."
    (List.length points)
    (List.length (feasible points))
    (List.length front);
  line "";
  line "%s" (table points);
  line "### Pareto front (price × cost, minimised)";
  line "";
  line "%s"
    (table (Explore.Pareto.sort_by ~objective:(fun p -> p.price) front));
  (match cache with
  | Some c ->
      line "### Evaluation cache";
      line "";
      line "%s" (Format.asprintf "%a" Explore.Cache.pp_stats (Explore.Cache.stats c))
  | None -> ());
  Buffer.contents buf

let csv points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "design,ts,platform,price,fraction,mode,ideal_cost,cost,degradation_pct,io_latency,makespan,fits_period,infeasible\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%g,%s,%g,%g,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%b,%b\n"
           p.design_name p.ts p.platform p.price p.fraction (mode_tag p.mode) p.ideal_cost
           p.cost p.degradation_pct p.io_latency p.makespan p.fits_period p.infeasible))
    points;
  Buffer.contents buf

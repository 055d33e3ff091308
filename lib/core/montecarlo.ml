type summary = {
  runs : int;
  seeds : int array;
  costs : float array;
  mean : float;
  stddev : float;
  cmin : float;
  cmax : float;
  p95 : float;
  static_cost : float;
}

let run ?(runs = 20) ?(base_seed = 1000) ?(law = Exec.Timing_law.Uniform)
    ?(bcet_frac = 0.4) ?pool ?cache ~design ~implementation () =
  if runs <= 0 then invalid_arg "Montecarlo.run: non-positive run count";
  let pool = match pool with Some p -> p | None -> Explore.Pool.default () in
  let cost_with mode =
    let engine = Methodology.simulate_implemented ~mode design implementation in
    (design : Design.t).Design.cost engine
  in
  let seeds = Array.init runs (fun i -> base_seed + i) in
  (* Both keys are computed here, before the map: the closure below
     runs on several domains at once, and forcing one shared [Lazy.t]
     from two domains raises [CamlinternalLazy.Undefined].  The
     schedule digest is the expensive key part; compute it once. *)
  let problem_key =
    match cache with
    | None -> ""
    | Some _ ->
        Explore.Key.digest
          [
            "scilife.montecarlo";
            design.Design.name;
            Explore.Key.float design.Design.ts;
            Explore.Key.float design.Design.horizon;
            Explore.Key.schedule implementation.Methodology.schedule;
            Explore.Key.law law;
            Explore.Key.float bcet_frac;
          ]
  in
  (* per-seed evaluation reuses the calling domain's compiled session
     (reseed + reset, bit-for-bit equal to the rebuild [cost_with]
     did here before — the Session determinism contract) *)
  let skey = Session.key ~law ~bcet_frac ~design ~implementation () in
  let session_cost seed =
    let s =
      Session.obtain ~key:skey ~create:(fun () ->
          Session.create ~law ~bcet_frac ~design ~implementation ())
    in
    Session.cost s ~seed
  in
  let cost_of seed =
    match cache with
    | None -> session_cost seed
    | Some c ->
        Explore.Cache.find_or_add c
          ~key:(Explore.Key.digest [ problem_key; Explore.Key.int seed ])
          (fun () -> session_cost seed)
  in
  let costs = Array.of_list (Explore.Pool.map pool cost_of (Array.to_list seeds)) in
  let static_cost = cost_with Translator.Delay_graph.Static_wcet in
  {
    runs;
    seeds;
    costs;
    mean = Numerics.Stats.mean costs;
    stddev = Numerics.Stats.stddev costs;
    cmin = Numerics.Stats.min costs;
    cmax = Numerics.Stats.max costs;
    p95 = Numerics.Stats.percentile costs 95.;
    static_cost;
  }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>monte-carlo over %d runs (seeds %d..%d):@,\
    \  mean = %.6g  std = %.6g@,\
    \  min = %.6g  p95 = %.6g  max = %.6g@,\
    \  static (WCET) cost = %.6g@]"
    s.runs s.seeds.(0)
    s.seeds.(s.runs - 1)
    s.mean s.stddev s.cmin s.p95 s.cmax s.static_cost

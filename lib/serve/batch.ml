module D = Lifecycle.Design
module M = Lifecycle.Methodology
module S = Lifecycle.Session

(* a batch IS a lifecycle session; this module keeps the serve-layer
   API and adds the pooled seed sweep *)
type t = S.t

let create ?meth ?law ?bcet_frac ?comm_jitter_frac ~design ~implementation () =
  S.create ?meth ?law ?bcet_frac ?comm_jitter_frac ~design ~implementation ()

let cost = S.cost

let costs ?pool ?meth ?law ?bcet_frac ?comm_jitter_frac ~design ~implementation
    seeds =
  match seeds with
  | [] -> []
  | seeds ->
      let pool = match pool with Some p -> p | None -> Explore.Pool.default () in
      let skey =
        S.key ?meth ?law ?bcet_frac ?comm_jitter_frac ~design ~implementation ()
      in
      (* each domain compiles (at most) one engine via the per-domain
         session slot and sweeps every chunk of seeds it takes through
         it, however the pool's chunks fall to the domains *)
      Explore.Pool.map pool
        (fun seed ->
          let s =
            S.obtain ~key:skey ~create:(fun () ->
                S.create ?meth ?law ?bcet_frac ?comm_jitter_frac ~design
                  ~implementation ())
          in
          S.cost s ~seed)
        seeds

let montecarlo ?(runs = 20) ?(base_seed = 1000) ?law ?bcet_frac ?pool ~design
    ~implementation () =
  if runs <= 0 then invalid_arg "Batch.montecarlo: non-positive run count";
  let seeds = Array.init runs (fun i -> base_seed + i) in
  let costs =
    Array.of_list
      (costs ?pool ?law ?bcet_frac ~design ~implementation (Array.to_list seeds))
  in
  let static_cost =
    let engine = M.simulate_implemented ~mode:Translator.Delay_graph.Static_wcet design implementation in
    (design : D.t).D.cost engine
  in
  {
    Lifecycle.Montecarlo.runs;
    seeds;
    costs;
    mean = Numerics.Stats.mean costs;
    stddev = Numerics.Stats.stddev costs;
    cmin = Numerics.Stats.min costs;
    cmax = Numerics.Stats.max costs;
    p95 = Numerics.Stats.percentile costs 95.;
    static_cost;
  }

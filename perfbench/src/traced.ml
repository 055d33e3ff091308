(* The traced run: replays each workload's first inputs (same seed,
   same generators) with a span around every public call into a layer,
   and reports the per-layer metrics.

   Every workload is replayed, so one traced run reports every layer;
   the workload named on the command line selects which replay the
   trace.coverage and trace.overhead metrics describe.  Each replay
   runs its inputs twice: untraced through the workload's own entry
   point, then decomposed into layer calls under spans.  The ratio of
   the two totals is the tracing overhead; end-to-end metrics never
   come from this run. *)

module J = Serve.Json
module M = Lifecycle.Methodology
module D = Lifecycle.Design
module E = Lifecycle.Explorer

type replay = {
  name : string;
  tracer : Tracer.t;
  ops : int;
  failed : int;
  untraced_s : float;  (** the same inputs through the undecomposed path *)
  domains : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let ms t name = 1000. *. Stats.median (Tracer.self_of t name)
let us t name = 1e6 *. Stats.median (Tracer.self_of t name)

let traced_total t = Stats.sum (List.map Tracer.duration (Tracer.roots t))

(* one replayed operation: an exception marks it failed; it is never
   retried *)
let guarded failed f = try f () with _ -> incr failed

(* ------------------------------------------------------------------ *)
(* serve_lifecycle *)

let serve_requests = 24

let serve ~seed ~domains =
  let requests = List.init serve_requests (Serve_wl.request ~seed) in
  Explore.Pool.with_pool ~domains @@ fun pool ->
  (* untraced: the service itself *)
  let service = Serve.Service.create ~pool Serve_wl.config in
  let replies =
    List.map
      (fun (r : Serve_wl.request) ->
        Clock.time (fun () ->
            Serve.Service.respond service (Serve.Protocol.request_of_line r.line)))
      requests
  in
  let untraced_s = Stats.sum (List.map snd replies) in
  let stats = Serve.Service.stats_json service in
  Serve.Service.close service;
  (* traced: the same pipeline, one public call per span *)
  let t = Tracer.create () in
  let cfg = Serve_wl.config in
  let memo : string Explore.Cache.t = Explore.Cache.create () in
  let steps = ref [] and runs = ref [] and scenarios = ref [] and per_scenario = ref [] in
  let failed = ref 0 in
  List.iter2
    (fun (r : Serve_wl.request) (reply, _) ->
      let op = r.index in
      let span name f = Tracer.span t ~op name f in
      guarded failed @@ fun () ->
      span "serve.request" @@ fun () ->
      let source, runs_opt, mc_seed =
        span "serve.protocol.request_of_line" (fun () ->
            match Serve.Protocol.request_of_line r.line with
            | Ok (Serve.Protocol.Evaluate { submission = Serve.Protocol.Inline s; opts; _ }) ->
                (s, opts.Serve.Protocol.montecarlo, opts.Serve.Protocol.base_seed)
            | _ -> failwith "not an inline evaluate request")
      in
      let n = Option.value runs_opt ~default:cfg.montecarlo_runs in
      let mc_seed = Option.value mc_seed ~default:cfg.base_seed in
      let key = Explore.Key.digest [ Explore.Key.string source; Explore.Key.int n; Explore.Key.int mc_seed ] in
      let report =
        match span "explore.cache.find_opt" (fun () -> Explore.Cache.find_opt memo ~key) with
        | Some rendered -> rendered
        | None ->
            let { Lifecycle.Diagram.design; architecture; durations; pins } =
              span "lifecycle.diagram.parse" (fun () -> Lifecycle.Diagram.parse source)
            in
            ignore (span "sim.ideal" (fun () -> design.D.cost (M.simulate_ideal design)));
            let impl =
              span "aaa.implement" (fun () -> M.implement ~pins ~design ~architecture ~durations ())
            in
            let engine = span "sim.implemented" (fun () -> M.simulate_implemented design impl) in
            ignore (design.D.cost engine);
            steps := float_of_int (Sim.Engine.steps engine) :: !steps;
            ignore
              (span "verify.run_all" (fun () ->
                   Verify.run_all ~architecture ~durations ~pins design));
            let mc, dt =
              Clock.time (fun () ->
                  span "serve.batch.montecarlo" (fun () ->
                      Serve.Batch.montecarlo ~runs:n ~base_seed:mc_seed ~law:cfg.law
                        ~bcet_frac:cfg.bcet_frac ~pool ~design ~implementation:impl ()))
            in
            runs := float_of_int n :: !runs;
            per_scenario := (1e6 *. dt /. float_of_int n) :: !per_scenario;
            let scen = Fault.Scenario.single_processor_failures ~seed:mc_seed architecture in
            scenarios := float_of_int (List.length scen) :: !scenarios;
            ignore
              (span "fault.robustness" (fun () ->
                   Fault.Robustness.evaluate ~iterations:cfg.robustness_iterations ~pool
                     ~design ~architecture ~durations ~scenarios:scen ()));
            (* observation never changes results: the traced batch
               equals the service's *)
            let served = Option.bind (J.member "report" reply) (J.member "montecarlo") in
            (match Option.bind served (J.member "mean") with
            | Some (J.Num m) when Float.equal m mc.Lifecycle.Montecarlo.mean -> ()
            | _ -> incr failed);
            let rendered = span "serve.json.render" (fun () -> J.to_string reply) in
            Explore.Cache.add memo ~key rendered;
            rendered
      in
      ignore report)
    requests replies;
  let hit_rate =
    Option.bind (J.member "cache" stats) (J.member "hit_rate")
    |> Fun.flip Option.bind J.to_float |> Option.value ~default:nan
  in
  {
    name = "serve_lifecycle";
    tracer = t;
    domains;
    ops = serve_requests;
    failed = !failed;
    untraced_s;
    metrics =
      [
        ("lifecycle.diagram.parse_ms", ms t "lifecycle.diagram.parse", "ms");
        ("sim.ideal_ms", ms t "sim.ideal", "ms");
        ("aaa.implement_ms", ms t "aaa.implement", "ms");
        ("sim.implemented_ms", ms t "sim.implemented", "ms");
        ("verify.run_all_ms", ms t "verify.run_all", "ms");
        ("serve.batch.montecarlo_ms", ms t "serve.batch.montecarlo", "ms");
        ("serve.batch.scenarios", Stats.sum !runs, "count");
        ("serve.batch.us_per_scenario", Stats.median !per_scenario, "us");
        ("fault.robustness_ms", ms t "fault.robustness", "ms");
        ("fault.robustness.scenarios", Stats.sum !scenarios, "count");
        ("serve.json.render_ms", ms t "serve.json.render", "ms");
        ("serve.protocol.parse_us", us t "serve.protocol.request_of_line", "us");
        ("explore.cache.hit_ratio", hit_rate, "ratio");
        ("sim.engine.steps", Stats.median !steps, "count");
      ];
  }

(* ------------------------------------------------------------------ *)
(* explore_sweep *)

let explore_sweeps = 2

let explore ~seed ~domains =
  let platforms = Explore_wl.platforms () in
  let sweeps = List.init explore_sweeps (Explore_wl.sweep ~seed ~platforms) in
  let throughput pool =
    let n, dt =
      Clock.time (fun () ->
          List.fold_left
            (fun n sw -> n + (Explore_wl.evaluate ~pool sw).E.s_evaluated)
            0 sweeps)
    in
    (float_of_int n /. dt, dt)
  in
  let all, _ = Explore.Pool.with_pool ~domains throughput in
  let one, untraced_s = Explore.Pool.with_pool ~domains:1 throughput in
  (* traced: the explorer's per-candidate calls, sequentially *)
  let t = Tracer.create () in
  let evaluated = ref 0 and next_op = ref 0 and failed = ref 0 in
  List.iter
    (fun (sw : Explore_wl.sweep) ->
      let cache : float Explore.Cache.t = Explore.Cache.create () in
      let front = ref Explore.Pareto.Front.empty in
      List.iteri
        (fun j (design : D.t) ->
          Tracer.span t ~op:(-1 - j) "explore.prepare" (fun () ->
              ignore (Tracer.span t ~op:(-1 - j) "sim.ideal" (fun () ->
                          design.D.cost (M.simulate_ideal design))));
          let cell = ref None in
          Seq.iter
            (fun (c : Explore.Grid.candidate) ->
              let op = !next_op in
              incr next_op;
              let span name f = Tracer.span t ~op name f in
              guarded failed @@ fun () ->
              span "explore.candidate" @@ fun () ->
              let platform = c.Explore.Grid.platform in
              let durations = platform.Explore.Grid.durations_of c.Explore.Grid.fraction in
              let cell_key = (platform.Explore.Grid.label, c.Explore.Grid.fraction) in
              let session =
                match !cell with
                | Some (k, s) when k = cell_key -> s
                | _ ->
                    let s =
                      match
                        span "explore.aaa.implement" (fun () ->
                            M.implement ~design ~architecture:platform.Explore.Grid.architecture
                              ~durations ())
                      with
                      | impl ->
                          Some
                            ( impl,
                              span "lifecycle.session.create" (fun () ->
                                  Lifecycle.Session.create ~design ~implementation:impl ()) )
                      | exception Aaa.Adequation.Infeasible _ -> None
                    in
                    cell := Some (cell_key, s);
                    s
              in
              incr evaluated;
              match (session, c.Explore.Grid.mode) with
              | Some (impl, s), Translator.Delay_graph.Jittered { seed = jseed; _ } ->
                  ignore
                    (span "lifecycle.session.key" (fun () ->
                         Lifecycle.Session.key ~design ~implementation:impl ()));
                  let cost =
                    span "lifecycle.session.cost" (fun () -> Lifecycle.Session.cost s ~seed:jseed)
                  in
                  let key =
                    Explore.Key.digest
                      [
                        design.D.name;
                        Explore.Key.architecture platform.Explore.Grid.architecture;
                        Explore.Key.durations durations;
                        Explore.Key.mode c.Explore.Grid.mode;
                      ]
                  in
                  let cost =
                    span "explore.cache.find_or_add" (fun () ->
                        Explore.Cache.find_or_add cache ~key (fun () -> cost))
                  in
                  let static = impl.M.static in
                  if static.Translator.Temporal_model.fits_period && Float.is_finite cost then
                    front :=
                      span "explore.pareto.insert" (fun () ->
                          Explore.Pareto.Front.insert !front
                            [| platform.Explore.Grid.price; cost |]
                            op)
              | _ -> ())
            (Explore_wl.candidates sw))
        sw.Explore_wl.designs)
    sweeps;
  let total name = Stats.sum (Tracer.self_of t name) in
  let create = total "lifecycle.session.create" and cost = total "lifecycle.session.cost" in
  let expected = List.fold_left (fun n sw -> n + Explore_wl.size sw) 0 sweeps in
  {
    name = "explore_sweep";
    tracer = t;
    domains;
    ops = !evaluated;
    failed = !failed + (if !evaluated = expected then 0 else 1);
    untraced_s;
    metrics =
      [
        ("explore.aaa.implement_ms", ms t "explore.aaa.implement", "ms");
        ("lifecycle.session.create_ms", ms t "lifecycle.session.create", "ms");
        ("lifecycle.session.cost_ms", ms t "lifecycle.session.cost", "ms");
        ("explore.pareto.insert_us", us t "explore.pareto.insert", "us");
        ("explore.cache.find_or_add_us", us t "explore.cache.find_or_add", "us");
        ("explore.compile_share", create /. (create +. cost), "ratio");
        ("explore.pool.scaling", all /. one, "ratio");
      ];
  }

(* ------------------------------------------------------------------ *)
(* deploy_networked *)

let deploy_count = Deploy_wl.block
let curve = [ 8; 12; 16 ]

let deploy ~seed =
  let deploys = List.init deploy_count (Deploy_wl.deploy ~seed) in
  let untraced = List.map (fun d -> Clock.time (fun () -> Deploy_wl.pipeline d)) deploys in
  let untraced_s = Stats.sum (List.map snd untraced) in
  let t = Tracer.create () in
  let failed = ref 0 in
  let instrs = ref [] and transfers = ref [] and frames = ref [] and quality = ref [] in
  List.iter2
    (fun (d : Deploy_wl.deploy) (reference, _) ->
      let span name f = Tracer.span t ~op:d.index name f in
      guarded failed @@ fun () ->
      span "deploy" @@ fun () ->
      let app = span "aaa.sdx.parse" (fun () -> Deploy_wl.parse d) in
      let schedule = span "aaa.adequation.run" (fun () -> Deploy_wl.adequate app) in
      let executive = span "aaa.codegen.generate" (fun () -> Aaa.Codegen.generate schedule) in
      let trace = span "exec.machine.run" (fun () -> Deploy_wl.execute d app executive) in
      let r = { Deploy_wl.app; schedule; executive; trace } in
      if not (Digest.equal (Deploy_wl.output_digest r) (Deploy_wl.output_digest reference)) then
        incr failed;
      instrs :=
        float_of_int
          (List.fold_left (fun n (_, p) -> n + List.length p) 0 executive.Aaa.Codegen.programs)
        :: !instrs;
      transfers := float_of_int (List.length schedule.Aaa.Schedule.comm) :: !transfers;
      frames :=
        float_of_int
          (List.length (Option.value (List.assoc_opt "bus" trace.Exec.Machine.bus_log) ~default:[]))
        :: !frames;
      let cp =
        Aaa.Adequation.critical_path ~algorithm:app.Aaa.Sdx.algorithm
          ~architecture:app.Aaa.Sdx.architecture ~durations:app.Aaa.Sdx.durations
      in
      quality := (schedule.Aaa.Schedule.makespan /. cp) :: !quality)
    deploys untraced;
  (* the adequation cliff as a curve: one fixed-N document per point,
     timed outside the per-deploy spans *)
  let point n =
    let app = Deploy_wl.parse (Deploy_wl.deploy_of ~seed ~nodes:n (100_000 + n)) in
    let _, dt = Clock.time (fun () -> Deploy_wl.adequate app) in
    (Printf.sprintf "aaa.adequation.run_ms.n%d" n, 1000. *. dt, "ms")
  in
  {
    name = "deploy_networked";
    tracer = t;
    domains = 1;
    ops = deploy_count;
    failed = !failed;
    untraced_s;
    metrics =
      [
        ("aaa.sdx.parse_ms", ms t "aaa.sdx.parse", "ms");
        ("aaa.adequation.run_ms", ms t "aaa.adequation.run", "ms");
        ("aaa.codegen.generate_ms", ms t "aaa.codegen.generate", "ms");
        ("exec.machine.run_ms", ms t "exec.machine.run", "ms");
      ]
      @ List.map point curve
      @ [
          ("aaa.codegen.instrs", Stats.median !instrs, "count");
          ("aaa.schedule.transfers", Stats.median !transfers, "count");
          ("media.bus.frames", Stats.median !frames, "count");
          ("aaa.schedule.makespan_over_cp", Stats.median !quality, "ratio");
        ];
  }

(* ------------------------------------------------------------------ *)

(* each layer's share of the replay's summed self time, largest first *)
let shares t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((s : Tracer.span), self) ->
      let prev = Option.value (Hashtbl.find_opt tbl s.Tracer.name) ~default:0. in
      Hashtbl.replace tbl s.Tracer.name (prev +. self))
    (Tracer.self_times t);
  let total = Hashtbl.fold (fun _ v a -> a +. v) tbl 0. in
  Hashtbl.fold (fun k v acc -> (k, v /. total) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let run seed workload out =
  let domains = Host.pool_domains () in
  let replays = [ serve ~seed ~domains; explore ~seed ~domains; deploy ~seed ] in
  (try Sys.mkdir (Filename.dirname out) 0o755 with Sys_error _ -> ());
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let record r =
    Host.record ~workload:r.name ~seed ~domains:r.domains
      ~sizes:
        [
          ("replayed_operations", J.Num (float_of_int r.ops));
          ("spans", J.Num (float_of_int (List.length (Tracer.spans r.tracer))));
        ]
  in
  List.iter
    (fun r ->
      let path = Filename.concat out (r.name ^ ".trace.json") in
      Tracer.write ~metadata:[ ("run", record r) ] r.tracer path;
      print_endline (J.to_string (J.Obj [ ("run", record r); ("spans_file", J.Str path) ]));
      Printf.printf "%s self-time shares:" r.name;
      List.iter (fun (k, s) -> Printf.printf " %s %.1f%%" k (100. *. s)) (shares r.tracer);
      print_newline ())
    replays;
  let named = List.find (fun r -> r.name = workload) replays in
  let metrics =
    List.concat_map (fun r -> r.metrics) replays
    @ [
        ("trace.coverage", Tracer.coverage named.tracer, "ratio");
        ("trace.overhead", traced_total named.tracer /. named.untraced_s, "ratio");
      ]
  in
  List.iter (fun (k, v, u) -> Printf.printf "%-34s %16.6f %s\n" k v u) metrics;
  let attempted = List.fold_left (fun n r -> n + r.ops) 0 replays in
  let failed = List.fold_left (fun n r -> n + r.failed) 0 replays in
  print_endline
    (J.to_string
       (Emit.result ~correct:(failed = 0) ~attempted ~failed
          (List.map (fun (k, v, u) -> (k, Emit.metric v u)) metrics)));
  failed = 0

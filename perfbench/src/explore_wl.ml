(* explore_sweep: screening sweeps through
   [Lifecycle.Explorer.evaluate_seq] over a streamed
   [Explore.Grid.seq], one sweep per operation, each with a fresh
   memo cache.  A sweep is two seeded PID designs x 3 platforms
   (1/2/4 processors) x 4 WCET fractions x 8 jitter seeds, seeds
   innermost: 192 candidates. *)

module J = Serve.Json
module E = Lifecycle.Explorer

(* ------------------------------------------------------------------ *)
(* input generation *)

let designs_per_sweep = 2
let fractions = [ 0.3; 0.55; 0.8; 1.0 ]
let seeds_per_cell = 8

(* nominal period the platforms' WCET tables are sized against *)
let nominal_ts = 0.05

(* WCET table placing the loop at [fraction] x 1.4 x the nominal
   period on a processor of relative [speed]: the top fractions overrun
   the period on the slow platforms, so infeasible points occur *)
let durations_for operators ~speed fraction =
  let d = Aaa.Durations.create () in
  List.iter
    (fun (op, share) ->
      let w = share *. fraction *. 1.4 *. nominal_ts /. speed in
      List.iter
        (fun operator ->
          Aaa.Durations.set d ~op ~operator w;
          Aaa.Durations.set_bcet d ~op ~operator (0.4 *. w))
        operators)
    [ ("reference", 0.05); ("sample_y", 0.2); ("pid", 0.6); ("hold_u", 0.15) ];
  d

let platform ~label ~price ~speed procs =
  let architecture =
    match procs with
    | [ p ] -> Aaa.Architecture.single ~proc_name:p ()
    | procs -> Aaa.Architecture.bus_topology ~latency:0.0005 ~time_per_word:0.0005 procs
  in
  { Explore.Grid.label; price; architecture; durations_of = durations_for procs ~speed }

(* pricier platforms are faster, so the front has more than one point *)
let platforms () =
  [
    platform ~label:"mcu" ~price:1. ~speed:1. [ "mcu" ];
    platform ~label:"duo" ~price:2. ~speed:1.6 [ "P0"; "P1" ];
    platform ~label:"quad" ~price:4. ~speed:2.5 [ "Q0"; "Q1"; "Q2"; "Q3" ];
  ]

type sweep = {
  index : int;
  designs : Lifecycle.Design.t list;
  jitter_seeds : int list;
  platforms : Explore.Grid.platform list;
}

let sweep ~seed ~platforms k =
  let rng = Random.State.make [| seed; 0xe5; k |] in
  let u () = Random.State.float rng 1. in
  let designs =
    List.init designs_per_sweep (fun j ->
        let g = 0.7 +. (0.6 *. u ()) in
        let ts = [| 0.04; 0.05 |].((k + j) mod 2) in
        Lifecycle.Design.pid_loop
          ~name:(Printf.sprintf "sweep_%d_%d_%d" seed k j)
          ~plant:(Control.Plants.dc_motor Control.Plants.default_dc_motor)
          ~x0:[| 0.; 0. |]
          ~gains:{ Control.Pid.kp = 60. *. g; ki = 80. *. g; kd = 0. }
          ~ts ~reference:1. ~horizon:0.5 ())
  in
  let base = Random.State.int rng 1_000_000 in
  { index = k; designs; jitter_seeds = List.init seeds_per_cell (fun s -> base + s); platforms }

let candidates sw =
  Explore.Grid.seq ~fractions ~seeds:sw.jitter_seeds ~platforms:sw.platforms ()

let size sw =
  designs_per_sweep * Explore.Grid.count ~fractions ~seeds:sw.jitter_seeds ~platforms:sw.platforms ()

let describe sw =
  String.concat ";"
    (List.map
       (fun (d : Lifecycle.Design.t) ->
         Printf.sprintf "%s:%h:%h" d.Lifecycle.Design.name d.Lifecycle.Design.ts
           d.Lifecycle.Design.horizon)
       sw.designs)
  ^ String.concat "," (List.map string_of_int sw.jitter_seeds)

(* ------------------------------------------------------------------ *)
(* checks *)

let sample_every = 23

let point_digest (p : E.point) =
  Printf.sprintf "%s|%s|%h|%h|%h|%h|%h|%b|%b" p.E.design_name p.E.platform p.E.fraction
    p.E.cost p.E.ideal_cost p.E.io_latency p.E.makespan p.E.fits_period p.E.infeasible

(* the streamed engine's retained samples equal the rebuild-per-
   candidate reference on a 1-domain pool without a cache *)
let check_samples ~ref_pool sw (s : E.summary) =
  let per_design = size sw / designs_per_sweep in
  List.for_all
    (fun (i, p) ->
      let design = List.nth sw.designs (i / per_design) in
      let c =
        match Seq.uncons (Seq.drop (i mod per_design) (candidates sw)) with
        | Some (c, _) -> c
        | None -> invalid_arg "sample index beyond the grid"
      in
      compare
        (E.evaluate ~pool:ref_pool ~engine_reuse:false ~designs:[ design ]
           ~candidates:[ c ] ())
        [ p ]
      = 0)
    s.E.s_samples

(* the incremental front equals the pairwise [Pareto.dominates] oracle
   over every point of the sweep *)
let check_front ~pool sw (s : E.summary) =
  let points =
    E.evaluate ~pool ~designs:sw.designs ~candidates:(List.of_seq (candidates sw)) ()
  in
  let feasible =
    List.filter
      (fun p -> (not p.E.infeasible) && p.E.fits_period && Float.is_finite p.E.cost)
      points
  in
  let objs p = [| p.E.price; p.E.cost |] in
  let oracle =
    List.filter
      (fun p -> not (List.exists (fun q -> Explore.Pareto.dominates (objs q) (objs p)) feasible))
      feasible
  in
  let key ps = List.sort compare (List.map point_digest ps) in
  List.length points = s.E.s_evaluated
  && List.length feasible = s.E.s_feasible
  && key oracle = key s.E.s_front

(* ------------------------------------------------------------------ *)
(* the untraced run *)

type state = {
  pool : Explore.Pool.t;
  platforms : Explore.Grid.platform list;
  sweeps : (int, sweep) Hashtbl.t;
}

let evaluate ~pool sw =
  E.evaluate_seq ~pool ~cache:(Explore.Cache.create ()) ~sample_every ~designs:sw.designs
    ~candidates:(candidates sw) ()

let prefetch = 64

let create ~seed ~domains () =
  let pool = Explore.Pool.create ~domains () in
  let platforms = platforms () in
  let sweeps = Hashtbl.create prefetch in
  for k = 0 to prefetch - 1 do
    Hashtbl.replace sweeps k (sweep ~seed ~platforms k)
  done;
  (* warm-up: one sweep outside every run's stream *)
  ignore (evaluate ~pool (sweep ~seed:(seed + 0x7e57) ~platforms 0));
  { pool; platforms; sweeps }

let destroy st = Explore.Pool.shutdown st.pool

let get st ~seed k =
  match Hashtbl.find_opt st.sweeps k with
  | Some sw -> sw
  | None ->
      let sw = sweep ~seed ~platforms:st.platforms k in
      Hashtbl.replace st.sweeps k sw;
      sw

(* every [check_every]-th sweep is re-checked in full after the timed
   loop, and after peak RSS is read: samples against the rebuild path,
   front against the oracle *)
let check_every = 8

let run ~seed ~seconds ~ops ~domains () =
  let st, setup_s = Outcome.setup ~repeats:5 ~create:(create ~seed ~domains) ~destroy in
  let m = Meter.create () in
  let checks = Outcome.checks () in
  let items = ref 0 and pending = ref [] in
  let outputs = Outcome.digest () and inputs = Outcome.digest () in
  let front_sizes = ref [] and infeasible = ref 0 in
  let per_sweep = size (get st ~seed 0) in
  let step k =
    let sw = get st ~seed k in
    Hashtbl.remove st.sweeps k;
    let s = Meter.time m (fun () -> try Ok (evaluate ~pool:st.pool sw) with e -> Error e) in
    Outcome.add inputs (describe sw);
    let what = Printf.sprintf "sweep %d" k in
    match s with
    | Error e -> Outcome.fail checks (what ^ ": " ^ Printexc.to_string e)
    | Ok s ->
        items := !items + s.E.s_evaluated;
        if
          Outcome.check checks what (fun () ->
              s.E.s_evaluated = size sw && s.E.s_front <> [])
        then begin
          front_sizes := float_of_int (List.length s.E.s_front) :: !front_sizes;
          infeasible := !infeasible + s.E.s_evaluated - s.E.s_feasible;
          List.iter (fun p -> Outcome.add outputs (point_digest p)) s.E.s_front;
          List.iter (fun (_, p) -> Outcome.add outputs (point_digest p)) s.E.s_samples;
          if k mod check_every = 0 then pending := (sw, s) :: !pending
        end
  in
  let attempted = Outcome.until ~seconds ~ops m step in
  let peak_rss_mb = Host.peak_rss_mb () in
  Explore.Pool.with_pool ~domains:1 (fun ref_pool ->
      List.iter
        (fun (sw, s) ->
          let what = Printf.sprintf "sweep %d" sw.index in
          ignore
            (Outcome.check checks (what ^ " samples") (fun () ->
                 check_samples ~ref_pool sw s));
          ignore
            (Outcome.check checks (what ^ " front") (fun () -> check_front ~pool:st.pool sw s)))
        (List.rev !pending));
  destroy st;
  {
    Outcome.attempted;
    failed = checks.n_failed;
    failures = List.rev checks.messages;
    timing = Meter.finish m;
    items = !items;
    setup_s;
    domains;
    peak_rss_mb;
    output_digest = Outcome.hex outputs;
    input_digest = Outcome.hex inputs;
    sizes =
      [
        ("sweeps", J.Num (float_of_int attempted));
        ("candidates", J.Num (float_of_int !items));
        ("candidates_per_sweep", J.Num (float_of_int per_sweep));
        ("infeasible", J.Num (float_of_int !infeasible));
        ("front_median", J.num_of (Stats.median !front_sizes));
        ("sweeps_rechecked", J.Num (float_of_int (List.length !pending)));
      ];
  }

(* deploy_networked: a sequence of seeded [.sdx] documents, each the
   fork-join networked workload (adc -> 2N filters -> fusion -> dac on
   N nodes sharing one bus).  One operation runs [Aaa.Sdx.parse] ->
   [Aaa.Adequation.run] -> [Aaa.Codegen.generate] -> [Exec.Machine.run]
   (60 iterations over a [Media.Bus] model with background load),
   single-threaded. *)

module J = Serve.Json

(* ------------------------------------------------------------------ *)
(* input generation *)

(* node counts of one block of 32 deploys, skewed small.  Each block
   holds this multiset in a seeded order, so the work mix of a run does
   not depend on the seed.  The median falls inside the N=7 band and
   the 90th percentile inside the N=12 band, away from their edges, so
   neither jumps between node counts when a run ends mid-block. *)
let block_nodes =
  Array.concat
    (List.map
       (fun (n, count) -> Array.make count n)
       [ (4, 5); (5, 4); (6, 4); (7, 6); (8, 3); (9, 2); (10, 2); (12, 4); (14, 1); (16, 1) ])

let block = Array.length block_nodes
let iterations = 60

type deploy = {
  index : int;
  nodes : int;
  sdx : string;  (** the application document *)
  bus : Media.Bus.config;  (** the shared bus, with background load *)
}

(* The application's structure, WCETs and word time are fixed per N, so
   every document of one node count costs the adequation the same work:
   drawn WCETs change the mapping, and with it the adequation time by up
   to 20 %, which would make the p50 and p90 of a run depend on which
   documents fell into their band.  The seed draws the node names, the
   order of each block and the background load. *)
let time_per_word = 0.0002

let application ~nodes ~prefix =
  let procs = List.init nodes (Printf.sprintf "%s%d" prefix) in
  let architecture = Aaa.Architecture.bus_topology ~time_per_word procs in
  let algorithm, durations =
    Aaa.Workloads.fork_join ~period:0.05 ~sensor_wcet:0.002 ~branch_wcet:0.004
      ~fusion_wcet:0.003 ~branches:(2 * nodes) ~operators:procs ()
  in
  Aaa.Sdx.print { Aaa.Sdx.algorithm; architecture; durations; pins = [] }

(* background traffic: one chatter stream per third node, asynchronous
   to the control period; the per-stream period grows with the stream
   count so the background utilization stays near 28 % at any N *)
let bus_model ~nodes rng =
  let chatterers = List.filter (fun i -> i mod 3 = 0) (List.init nodes Fun.id) in
  let period = 0.01 *. float_of_int (List.length chatterers) in
  let jitter_frac = 0.2 +. Random.State.float rng 0.2 in
  let load =
    List.map
      (fun node ->
        Media.Load.periodic ~jitter_frac ~node ~ident:(10 + node) ~words:4 ~period ())
      chatterers
  in
  Media.Bus.make ~name:"bus" ~time_per_word ~frame_overhead:(10. *. time_per_word)
    ~max_wait:0.5 ~seed:(Random.State.int rng 1_000_000) ~load ()

let deploy_of ~seed ~nodes i =
  let rng = Random.State.make [| seed; 0xde; i |] in
  let prefix = Printf.sprintf "n%x_" (Random.State.int rng 0xfffff) in
  { index = i; nodes; sdx = application ~nodes ~prefix; bus = bus_model ~nodes rng }

let order ~seed b =
  let rng = Random.State.make [| seed; 0xd0; b |] in
  let a = Array.copy block_nodes in
  Serve_wl.shuffle rng a;
  a

let deploy ~seed i = deploy_of ~seed ~nodes:(order ~seed (i / block)).(i mod block) i

(* ------------------------------------------------------------------ *)
(* the pipeline under test *)

type result = {
  app : Aaa.Sdx.t;
  schedule : Aaa.Schedule.t;
  executive : Aaa.Codegen.t;
  trace : Exec.Machine.trace;
}

let machine_config d =
  {
    Exec.Machine.default_config with
    iterations;
    law = Exec.Timing_law.Uniform;
    seed = d.index;
    bus_models = [ ("bus", d.bus) ];
  }

let parse d = Aaa.Sdx.parse d.sdx

let adequate (app : Aaa.Sdx.t) =
  Aaa.Adequation.run ~pins:app.Aaa.Sdx.pins ~algorithm:app.Aaa.Sdx.algorithm
    ~architecture:app.Aaa.Sdx.architecture ~durations:app.Aaa.Sdx.durations ()

let execute d (app : Aaa.Sdx.t) executive =
  Exec.Machine.run
    ~config:{ (machine_config d) with durations = Some app.Aaa.Sdx.durations }
    executive

let pipeline d =
  let app = parse d in
  let schedule = adequate app in
  let executive = Aaa.Codegen.generate schedule in
  let trace = execute d app executive in
  { app; schedule; executive; trace }

(* ------------------------------------------------------------------ *)
(* checks *)

let check r =
  (not
     (List.exists
        (fun (d : Verify.Diag.t) -> d.Verify.Diag.severity = Verify.Diag.Error)
        (Verify.Sched_rules.check r.schedule)))
  && Exec.Machine.order_conformant r.trace
  && r.trace.Exec.Machine.iterations = iterations

let output_digest r =
  Digest.string
    (Aaa.Codegen.to_string r.executive
    ^ String.concat ","
        (Array.to_list (Array.map (Printf.sprintf "%h") r.trace.Exec.Machine.iteration_end)))

(* ------------------------------------------------------------------ *)
(* the untraced run *)

let prefetch = 64

type state = { deploys : (int, deploy) Hashtbl.t }

let create ~seed () =
  let deploys = Hashtbl.create prefetch in
  for i = 0 to prefetch - 1 do
    Hashtbl.replace deploys i (deploy ~seed i)
  done;
  (* warm-up: one small deploy outside every run's stream *)
  ignore (pipeline (deploy_of ~seed:(seed + 0x7e57) ~nodes:4 0));
  { deploys }

let get st ~seed i =
  match Hashtbl.find_opt st.deploys i with
  | Some d -> d
  | None ->
      let d = deploy ~seed i in
      Hashtbl.replace st.deploys i d;
      d

let run ~seed ~seconds ~ops () =
  let st, setup_s = Outcome.setup ~repeats:5 ~create:(create ~seed) ~destroy:ignore in
  let m = Meter.create () in
  let checks = Outcome.checks () in
  let nodes = ref [] in
  let outputs = Outcome.digest () and inputs = Outcome.digest () in
  let step i =
    let d = get st ~seed i in
    Hashtbl.remove st.deploys i;
    let r = Meter.time m (fun () -> try Ok (pipeline d) with e -> Error e) in
    nodes := d.nodes :: !nodes;
    Outcome.add inputs d.sdx;
    let what = Printf.sprintf "deploy %d (N=%d)" i d.nodes in
    match r with
    | Error e -> Outcome.fail checks (what ^ ": " ^ Printexc.to_string e)
    | Ok r ->
        if Outcome.check checks what (fun () -> check r) then
          Outcome.add outputs (output_digest r)
  in
  let attempted = Outcome.until ~block ~seconds ~ops m step in
  let peak_rss_mb = Host.peak_rss_mb () in
  let mix =
    List.sort_uniq compare !nodes
    |> List.map (fun n ->
           ( Printf.sprintf "N%d" n,
             J.Num (float_of_int (List.length (List.filter (( = ) n) !nodes))) ))
  in
  {
    Outcome.attempted;
    failed = checks.n_failed;
    failures = List.rev checks.messages;
    timing = Meter.finish m;
    items = attempted;
    setup_s;
    domains = 1;
    peak_rss_mb;
    output_digest = Outcome.hex outputs;
    input_digest = Outcome.hex inputs;
    sizes =
      [
        ("deploys", J.Num (float_of_int attempted));
        ("iterations", J.Num (float_of_int iterations));
        ("nodes_mix", J.Obj mix);
      ];
  }

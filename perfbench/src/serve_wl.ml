(* serve_lifecycle: one closed-loop client sends [evaluate] request
   lines through [Serve.Protocol.request_of_line] and
   [Serve.Service.respond]; each carries a seeded lifecycle document
   inline.  About a quarter of the requests repeat an earlier
   submission, so memo-cache hits sit beside misses. *)

module J = Serve.Json
module M = Lifecycle.Methodology
module D = Lifecycle.Design

(* ------------------------------------------------------------------ *)
(* input generation *)

(* requests come in blocks of 48: 36 fresh documents, one per shape,
   and 12 repeats, in a seeded order.  Every shape appears once per
   block, so the work mix of a run does not depend on the seed; the
   seed draws the order and each document's contents. *)
let block = 48
let fresh_per_block = 36

type plant = Dc_motor | First_order | Mass_spring_damper

type shape = {
  plant : plant;
  ecus : int;  (** 1 to 3 *)
  runs : int;  (** Monte-Carlo scenarios, 16 to 48 *)
  horizon : float;  (** 2 to 5 s *)
  ts : float;
}

let shape k =
  let level = k / 9 in
  {
    plant = [| Dc_motor; First_order; Mass_spring_damper |].(k mod 3);
    ecus = 1 + (k / 3 mod 3);
    runs = [| 16; 24; 36; 48 |].(level);
    horizon = [| 5.; 4.; 3.; 2. |].(level);
    ts = [| 0.05; 0.04; 0.025 |].((k + level) mod 3);
  }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let layouts : (int * int, int option array) Hashtbl.t = Hashtbl.create 16

(* [Some shape] for a fresh request, [None] for a repeat *)
let layout ~seed b =
  match Hashtbl.find_opt layouts (seed, b) with
  | Some l -> l
  | None ->
      let rng = Random.State.make [| seed; 0x5e; b |] in
      let l = Array.init block (fun k -> if k < fresh_per_block then Some k else None) in
      shuffle rng l;
      (* the very first request has nothing to repeat *)
      if b = 0 && l.(0) = None then begin
        let first = ref 0 in
        while l.(!first) = None do incr first done;
        l.(0) <- l.(!first);
        l.(!first) <- None
      end;
      Hashtbl.replace layouts (seed, b) l;
      l

let slot ~seed i = (layout ~seed (i / block)).(i mod block)

let document ~name (s : shape) rng =
  let u () = Random.State.float rng 1. in
  let g = 0.8 +. (0.4 *. u ()) in
  let plant, x0, kp, ki, kd =
    match s.plant with
    | Dc_motor -> ("(plant dc-motor)", "0 0", 60. *. g, 80. *. g, 0.)
    | First_order ->
        let tau = 0.3 +. (0.5 *. u ()) and gain = 1. +. (2. *. u ()) in
        let kp = 1.5 *. g /. gain in
        (Printf.sprintf "(plant first-order %.4f %.4f)" tau gain, "0", kp, kp /. tau, 0.)
    | Mass_spring_damper ->
        let k = 2. +. (4. *. u ()) and c = 0.4 +. (0.8 *. u ()) in
        ( Printf.sprintf "(plant mass-spring-damper 1 %.4f %.4f)" k c,
          "0 0",
          (2. +. k) *. g,
          (1. +. k) *. g,
          0.4 *. g )
  in
  (* the loop's WCETs take 20-50 % of the period: feasible on any of
     the 1-3 ECU platforms, bus transfers included *)
  let budget = s.ts *. (0.2 +. (0.3 *. u ())) in
  let ecu i = Printf.sprintf "ecu%d" i in
  let ecus = List.init s.ecus ecu in
  let architecture =
    String.concat " "
      (List.map (fun e -> Printf.sprintf "(operator %s)" e) ecus)
    ^
    if s.ecus > 1 then
      Printf.sprintf " (bus (name can) (latency 0.0005) (rate 0.0004) (connects %s))"
        (String.concat " " ecus)
    else ""
  in
  Printf.sprintf
    "(lifecycle\n\
    \  (design (name %s) (ts %g) (horizon %g) (cost iae y 0 1.0))\n\
    \  (diagram\n\
    \    (block (name plant) (type lti) %s (x0 %s))\n\
    \    (block (name reference) (type const) (value 1))\n\
    \    (block (name sample_y) (type sample-hold) (width 1))\n\
    \    (block (name pid) (type pid) (kp %.5f) (ki %.5f) (kd %.5f) (ts %g))\n\
    \    (block (name hold_u) (type sample-hold) (width 1))\n\
    \    (link plant 0 sample_y 0) (link reference 0 pid 0) (link sample_y 0 pid 1)\n\
    \    (link pid 0 hold_u 0) (link hold_u 0 plant 0)\n\
    \    (members reference sample_y pid hold_u)\n\
    \    (clocked sample_y pid hold_u)\n\
    \    (probe y plant 0) (probe u hold_u 0))\n\
    \  (architecture (name platform%d) %s)\n\
    \  (durations (wcet reference * %.6f) (wcet sample_y ecu0 %.6f)\n\
    \             (wcet pid * %.6f) (wcet hold_u ecu0 %.6f))\n\
    \  (pins (pin sample_y ecu0) (pin hold_u ecu0)))\n"
    name s.ts s.horizon plant x0 kp ki kd s.ts s.ecus architecture (0.05 *. budget)
    (0.25 *. budget) (0.5 *. budget) (0.2 *. budget)

type request = {
  index : int;
  repeat_of : int option;  (** index of the fresh request this repeats *)
  source : string;
  runs : int;
  mc_seed : int;
  line : string;  (** the wire request *)
}

let line ~index ~source ~runs ~mc_seed =
  J.to_string
    (J.Obj
       [
         ("kind", J.Str "evaluate");
         ("id", J.Num (float_of_int index));
         ("source", J.Str source);
         ("montecarlo", J.Num (float_of_int runs));
         ("seed", J.Num (float_of_int mc_seed));
         ("robustness", J.Bool true);
       ])

let fresh ~seed i k =
  let s = shape k in
  let rng = Random.State.make [| seed; 0x51; i |] in
  let source = document ~name:(Printf.sprintf "loop_%d_%d" seed i) s rng in
  let mc_seed = 1000 + Random.State.int rng 100_000 in
  { index = i; repeat_of = None; source; runs = s.runs; mc_seed;
    line = line ~index:i ~source ~runs:s.runs ~mc_seed }

let request ~seed i =
  match slot ~seed i with
  | Some k -> fresh ~seed i k
  | None ->
      (* repeat a uniformly drawn request among the last [block], or
         the fresh one it repeats itself.  The window keeps every
         repeat inside the memo table's capacity, so a repeat is a hit
         however long the run. *)
      let rng = Random.State.make [| seed; 0x52; i |] in
      let lo = max 0 (i - block) in
      let j = ref (lo + Random.State.int rng (i - lo)) in
      while slot ~seed !j = None do decr j done;
      let r = fresh ~seed !j (Option.get (slot ~seed !j)) in
      { r with index = i; repeat_of = Some !j;
               line = line ~index:i ~source:r.source ~runs:r.runs ~mc_seed:r.mc_seed }

(* a request outside every run's stream, for the set-up warm-up *)
let warmup ~seed = fresh ~seed:(seed + 0x7e57) 0 (fresh_per_block - 1)

(* ------------------------------------------------------------------ *)
(* checks *)

(* A repeat lies at most [block] requests, plus the repeats it walks
   back over, behind its fresh request: fewer than [2 * block] inserts.
   The bounded memo table keeps the service's memory flat over a run,
   so peak RSS does not grow with the number of requests a host manages
   in the run's time. *)
let config =
  {
    Serve.Service.default_config with
    montecarlo_runs = 32;
    robustness = true;
    cache_capacity = 2 * block;
  }

let num path v =
  let rec go v = function
    | [] -> J.to_float v
    | k :: rest -> Option.bind (J.member k v) (fun v -> go v rest)
  in
  go v path

let finite path v = match num path v with Some f -> Float.is_finite f | None -> false

let check_response resp =
  J.member "ok" resp = Some (J.Bool true)
  && J.member "kind" resp = Some (J.Str "report")
  &&
  match J.member "report" resp with
  | None -> false
  | Some r ->
      List.for_all
        (fun p -> finite p r)
        [
          [ "ideal_cost" ];
          [ "implemented_cost" ];
          [ "montecarlo"; "mean" ];
          [ "montecarlo"; "min" ];
          [ "montecarlo"; "max" ];
          [ "robustness"; "nominal_cost" ];
        ]

(* recompute every Monte-Carlo draw of a request on freshly built
   engines ([simulate_implemented ~mode:(Jittered _)], no session
   reuse) and compare the summary bit for bit *)
let check_montecarlo (r : request) report =
  let { Lifecycle.Diagram.design; architecture; durations; pins } =
    Lifecycle.Diagram.parse r.source
  in
  let impl = M.implement ~pins ~design ~architecture ~durations () in
  let costs =
    Array.init r.runs (fun k ->
        design.D.cost
          (M.simulate_implemented
             ~mode:
               (Translator.Delay_graph.Jittered
                  { law = config.law; bcet_frac = config.bcet_frac; seed = r.mc_seed + k })
             design impl))
  in
  let same field v =
    match num [ "montecarlo"; field ] report with
    | Some f -> Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float v)
    | None -> false
  in
  same "runs" (float_of_int r.runs)
  && same "mean" (Numerics.Stats.mean costs)
  && same "stddev" (Numerics.Stats.stddev costs)
  && same "min" (Numerics.Stats.min costs)
  && same "max" (Numerics.Stats.max costs)
  && same "p95" (Numerics.Stats.percentile costs 95.)

(* ------------------------------------------------------------------ *)
(* the untraced run *)

let prefetch = 256

type state = {
  pool : Explore.Pool.t;
  service : Serve.Service.t;
  requests : (int, request) Hashtbl.t;
}

let create ~seed ~domains () =
  let pool = Explore.Pool.create ~domains () in
  let service = Serve.Service.create ~pool config in
  let requests = Hashtbl.create prefetch in
  for i = 0 to prefetch - 1 do
    Hashtbl.replace requests i (request ~seed i)
  done;
  ignore (Serve.Service.respond service (Serve.Protocol.request_of_line (warmup ~seed).line));
  { pool; service; requests }

let destroy st =
  Serve.Service.close st.service;
  Explore.Pool.shutdown st.pool

let get st ~seed i =
  match Hashtbl.find_opt st.requests i with
  | Some r -> r
  | None ->
      let r = request ~seed i in
      Hashtbl.replace st.requests i r;
      r

(* every [mc_check_every]-th request, when fresh, has its Monte-Carlo
   draws recomputed after the timed loop, and after peak RSS is read:
   the recompute's garbage and memory are the benchmark's, not the
   service's *)
let mc_check_every = 24

let run ~seed ~seconds ~ops ~domains () =
  let st, setup_s =
    Outcome.setup ~repeats:5 ~create:(create ~seed ~domains) ~destroy
  in
  let m = Meter.create () in
  let checks = Outcome.checks () in
  (* each fresh request's report, for its repeats; a repeat lies fewer
     than [2 * block] requests behind, so older ones are dropped *)
  let firsts = Hashtbl.create (2 * block) in
  let outputs = Outcome.digest () and inputs = Outcome.digest () in
  let mc_pending = ref [] in
  let repeats = ref 0 in
  let step i =
    let r = get st ~seed i in
    Hashtbl.remove st.requests i;
    Hashtbl.remove firsts (i - (2 * block));
    let wire =
      Meter.time m (fun () ->
          J.to_string
            (Serve.Service.respond st.service (Serve.Protocol.request_of_line r.line)))
    in
    (* checks, outside the timed region *)
    Outcome.add inputs r.line;
    let what = Printf.sprintf "request %d" i in
    match J.parse wire with
    | Error msg -> Outcome.fail checks (what ^ ": unparseable reply: " ^ msg)
    | Ok resp ->
        let report = Option.map J.to_string (J.member "report" resp) in
        let ok =
          Outcome.check checks what (fun () ->
              check_response resp
              &&
              match r.repeat_of with
              | None -> true
              | Some j ->
                  incr repeats;
                  Option.equal String.equal (Hashtbl.find_opt firsts j) report)
        in
        if ok then begin
          if r.repeat_of = None then Hashtbl.replace firsts i (Option.get report);
          Outcome.add outputs (Option.get report);
          if r.repeat_of = None && i mod mc_check_every = 0 then
            mc_pending := (r, Option.get (J.member "report" resp)) :: !mc_pending
        end
  in
  let attempted = Outcome.until ~block ~seconds ~ops m step in
  let peak_rss_mb = Host.peak_rss_mb () in
  let stats = Serve.Service.stats_json st.service in
  destroy st;
  List.iter
    (fun ((r : request), report) ->
      ignore
        (Outcome.check checks
           (Printf.sprintf "request %d monte-carlo recompute" r.index)
           (fun () -> check_montecarlo r report)))
    (List.rev !mc_pending);
  let hit_rate = Option.value (num [ "cache"; "hit_rate" ] stats) ~default:nan in
  {
    Outcome.attempted;
    failed = checks.n_failed;
    failures = List.rev checks.messages;
    timing = Meter.finish m;
    items = attempted;
    setup_s;
    domains;
    peak_rss_mb;
    output_digest = Outcome.hex outputs;
    input_digest = Outcome.hex inputs;
    sizes =
      [
        ("requests", J.Num (float_of_int attempted));
        ("repeats", J.Num (float_of_int !repeats));
        ("montecarlo_rechecked", J.Num (float_of_int (List.length !mc_pending)));
        ("cache_hit_rate", J.num_of hit_rate);
      ];
  }

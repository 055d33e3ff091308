(* The benchmark's own tests: a tiny-size smoke run of every workload,
   same-seed determinism, seed sensitivity of the inputs, span
   self-time arithmetic, and the reference-speed meter. *)

open Perfbench

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* two domains even on a 1-core host, so the pool's determinism
   contract is exercised *)
let run workload ~seed ~ops =
  Cli.outcome ~domains:2 ~seed ~seconds:1. ~ops:(Some ops) workload

(* the result line of a run parses back with [Serve.Json] *)
let parseable (o : Outcome.t) =
  let line =
    Serve.Json.to_string
      (Emit.result ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed
         [ ("p50_ref_ms", Emit.metric (Stats.median o.timing.Meter.scaled) "ms") ])
  in
  match Serve.Json.parse line with
  | Ok v -> Serve.Json.member "attempted" v = Some (Serve.Json.Num (float_of_int o.attempted))
  | Error _ -> false

let workload name ~ops =
  let a = run name ~seed:7 ~ops in
  List.iter (Printf.printf "  %s\n") a.failures;
  expect (name ^ ": smoke run, no failed operation")
    (a.attempted = ops && a.failed = 0 && List.length a.timing.Meter.scaled = ops);
  expect (name ^ ": parseable result line") (parseable a);
  let b = run name ~seed:7 ~ops in
  expect (name ^ ": same seed, same inputs and outputs")
    (a.input_digest = b.input_digest && a.output_digest = b.output_digest);
  let c = run name ~seed:8 ~ops in
  expect (name ^ ": different seed, different inputs") (a.input_digest <> c.input_digest)

let spans () =
  let t = Tracer.create () in
  Tracer.span t ~op:0 "root" (fun () ->
      Tracer.span t ~op:0 "child" (fun () -> Unix.sleepf 0.02);
      Unix.sleepf 0.01);
  let self name = List.hd (Tracer.self_of t name) in
  let root = List.hd (Tracer.roots t) in
  expect "tracer: self time excludes children"
    (Float.abs (self "root" +. self "child" -. Tracer.duration root) < 1e-9
    && self "child" >= 0.02 && self "root" >= 0.01);
  let cov = Tracer.coverage t in
  expect "tracer: coverage is the child's share" (cov > 0.5 && cov < 1.);
  expect "tracer: trace-event JSON round-trips"
    (Result.is_ok (Serve.Json.parse (Serve.Json.to_string (Tracer.to_json t))))

(* every timed operation gets one reference-speed time, from the probes
   on either side of it *)
let meter () =
  let m = Meter.create () in
  for _ = 1 to 3 do
    Meter.tick m;
    Meter.time m (fun () -> ignore (Calib.kernel ()))
  done;
  let t = Meter.finish m in
  expect "meter: one positive, finite scaled time per operation"
    (List.length t.Meter.scaled = 3
    && List.for_all (fun x -> Float.is_finite x && x > 0.) t.Meter.scaled
    && t.Meter.slowdown > 0.)

let () =
  workload "serve_lifecycle" ~ops:6;
  workload "explore_sweep" ~ops:2;
  workload "deploy_networked" ~ops:4;
  spans ();
  meter ();
  if !failures > 0 then begin
    Printf.printf "%d test(s) failed\n" !failures;
    exit 1
  end

(* Command line, result printing and exit code. *)

module J = Serve.Json

let workloads = [ "serve_lifecycle"; "explore_sweep"; "deploy_networked" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;  (** directory for the span files *)
}

let usage =
  "usage: main.exe --workload (serve_lifecycle|explore_sweep|deploy_networked) --seed N \
   --seconds S --trace (0|1) [--out DIR]"

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref 10. and trace = ref false in
  let out = ref "perfbench/out" in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest ->
        seconds := Option.value (float_of_string_opt s) ~default:nan; go rest
    | "--trace" :: t :: rest ->
        trace := (match t with "1" -> true | "0" -> false | _ -> failwith usage);
        go rest
    | "--out" :: d :: rest -> out := d; go rest
    | arg :: _ -> failwith (Printf.sprintf "unknown argument %S\n%s" arg usage)
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed) with
  | Some w, Some seed when List.mem w workloads && Float.is_finite !seconds && !seconds > 0. ->
      { workload = w; seed; seconds = !seconds; trace = !trace; out = !out }
  | _ -> failwith usage

(* the workload's own names for the generic latency and throughput
   metrics, printed beside them *)
let aliases = function
  | "serve_lifecycle" -> ("request", "requests_per_s")
  | "explore_sweep" -> ("sweep", "candidates_per_s")
  | _ -> ("deploy", "deploys_per_s")

(* one untraced run: [ops] operations, or [seconds] of operation time *)
let outcome ~domains ~seed ~seconds ~ops = function
  | "serve_lifecycle" -> Serve_wl.run ~seed ~seconds ~ops ~domains ()
  | "explore_sweep" -> Explore_wl.run ~seed ~seconds ~ops ~domains ()
  | _ -> Deploy_wl.run ~seed ~seconds ~ops ()

(* The untraced run uses one pool domain: on a shared host of few cores,
   a second domain's stop-the-world GC waits measure the scheduler, not
   the program.  The traced run measures the pool's scaling. *)
let untraced_domains = 1

let run_untraced a =
  let o =
    outcome ~domains:untraced_domains ~seed:a.seed ~seconds:a.seconds ~ops:None a.workload
  in
  let t = o.timing in
  let n = List.length t.Meter.scaled in
  let p50 = 1000. *. Stats.percentile t.Meter.scaled 50.
  and p90 = 1000. *. Stats.percentile t.Meter.scaled 90. in
  let busy = Stats.sum t.Meter.scaled in
  let throughput = float_of_int o.items /. busy in
  let record =
    Host.record ~workload:a.workload ~seed:a.seed ~domains:o.domains
      ~sizes:
        (o.sizes
        @ [
            ("operation_samples", J.Num (float_of_int n));
            ("p90_samples_beyond", J.Num (float_of_int (Stats.beyond n 90.)));
            ("input_digest", J.Str o.input_digest);
            ("output_digest", J.Str o.output_digest);
            ("wall_s", J.Num t.Meter.wall_s);
            ("cpu_s", J.Num t.Meter.cpu_s);
            ("host_slowdown", J.Num t.Meter.slowdown);
          ])
  in
  print_endline (J.to_string (J.Obj [ ("run", record) ]));
  let op, tput = aliases a.workload in
  Printf.printf "%-22s %14.6f ms   (%s_p50_ms, %d samples)\n" "p50_ref_ms" p50 op n;
  Printf.printf "%-22s %14.6f ms   (%s_p90_ms, %d samples, %d beyond)\n" "p90_ref_ms" p90 op n
    (Stats.beyond n 90.);
  Printf.printf "%-22s %14.6f 1/s  (%s, %d items in %.3f s)\n" "throughput_ref_per_s"
    throughput tput o.items busy;
  Printf.printf "%-22s %14.6f s\n" "setup_s" o.setup_s;
  Printf.printf "%-22s %14.6f MB\n" "peak_rss_mb" o.peak_rss_mb;
  Printf.printf
    "raw: %.3f s wall, %.3f s CPU in operations; the host ran %.2fx the reference's time\n"
    t.Meter.wall_s t.Meter.cpu_s t.Meter.slowdown;
  if Stats.beyond n 90. < 10 then
    Printf.printf "note: fewer than 10 samples beyond p90; p90 is not resolved at this size\n";
  List.iter (Printf.printf "FAILED: %s\n") o.failures;
  let correct = o.failed = 0 in
  print_endline
    (J.to_string
       (Emit.result ~correct ~attempted:o.attempted ~failed:o.failed
          [
            ("p50_ref_ms", Emit.metric p50 "ms");
            ("p90_ref_ms", Emit.metric p90 "ms");
            ("throughput_ref_per_s", Emit.metric throughput "1/s");
            ("setup_s", Emit.metric o.setup_s "s");
            ("peak_rss_mb", Emit.metric o.peak_rss_mb "MB");
          ]));
  correct

let main argv =
  match parse argv with
  | exception Failure msg ->
      prerr_endline msg;
      exit 2
  | a ->
      let correct = if a.trace then Traced.run a.seed a.workload a.out else run_untraced a in
      exit (if correct then 0 else 1)

(* Adequation against an oracle.  [Oracle.run] is the adequation as it
   was before the per-run route table: it asks a plain breadth-first
   route search for every transfer it prices and walks every route it
   gets back.  [Adequation.run] memoises routes per run, drops
   dominated ones and searches with a pruned BFS; the properties below
   require its schedules to be bit-for-bit those of the oracle. *)

open Helpers
module Alg = Aaa.Algorithm
module Arch = Aaa.Architecture
module Dur = Aaa.Durations
module Sched = Aaa.Schedule
module Adq = Aaa.Adequation

(* ------------------------------------------------------------------ *)
(* the oracle *)

module Oracle = struct
  let oi (x : Alg.op_id) = (x :> int)
  let pi (x : Arch.operator_id) = (x :> int)
  let mi (x : Arch.medium_id) = (x :> int)

  (* breadth-first enumeration of simple paths, no pruning *)
  let routes ?(max_hops = 3) ?(max_routes = 8) a src dst =
    let results = ref [] in
    let queue = Queue.create () in
    Queue.add (src, [], [ src ]) queue;
    while (not (Queue.is_empty queue)) && List.length !results < max_routes do
      let here, path_rev, visited = Queue.pop queue in
      if here = dst then results := List.rev path_rev :: !results
      else if List.length path_rev < max_hops then
        List.iter
          (fun mid ->
            let eps = Arch.medium_endpoints a mid in
            if List.mem here eps then
              List.iter
                (fun next ->
                  if next <> here && not (List.mem next visited) then
                    Queue.add (next, (mid, next) :: path_rev, next :: visited) queue)
                eps)
          (Arch.media a)
    done;
    List.rev !results

  let scheduling_deps algorithm =
    let deps = Alg.dependencies algorithm in
    let cond_deps =
      List.filter_map
        (fun op ->
          match Alg.op_cond algorithm op with
          | None -> None
          | Some { Alg.var; _ } -> (
              match Alg.condition_source algorithm ~var with
              | None -> None
              | Some (src, sp) ->
                  let already =
                    List.exists (fun ((s, p), (d, _)) -> s = src && p = sp && d = op) deps
                  in
                  if already || src = op then None else Some ((src, sp), (op, -1))))
        (Alg.ops algorithm)
    in
    deps @ cond_deps

  let dep_width algorithm ((src, sp), (_, dp)) =
    if dp = -1 then 1 else (Alg.op_outputs algorithm src).(sp)

  let tail_levels ~algorithm ~architecture ~durations deps =
    let operators = List.map (Arch.operator_name architecture) (Arch.operators architecture) in
    let avg op =
      match Dur.average_wcet durations ~op:(Alg.op_name algorithm op) ~operators with
      | Some v -> v
      | None ->
          if Alg.op_kind algorithm op = Alg.Memory then 0.
          else raise (Adq.Infeasible "no operator")
    in
    let tails = Array.make (Alg.op_count algorithm) 0. in
    List.iter
      (fun op ->
        let succ_tail =
          List.fold_left
            (fun acc ((s, _), (d, _)) ->
              if s = op && Alg.op_kind algorithm s <> Alg.Memory then
                Float.max acc tails.(oi d)
              else acc)
            0. deps
        in
        tails.(oi op) <- avg op +. succ_tail)
      (List.rev (Alg.topological_order algorithm));
    tails

  type placed = { p_operator : Arch.operator_id; p_start : float; p_finish : float }

  let infeasible () = raise (Adq.Infeasible "oracle")

  let run ?(strategy = Adq.Pressure) ~algorithm ~architecture ~durations () =
    let n = Alg.op_count algorithm in
    let operator_ids = Arch.operators architecture in
    let deps = scheduling_deps algorithm in
    let tails = tail_levels ~algorithm ~architecture ~durations deps in
    let allowed op =
      let name = Alg.op_name algorithm op in
      match
        List.filter
          (fun operator ->
            Dur.can_run durations ~op:name ~operator:(Arch.operator_name architecture operator))
          operator_ids
      with
      | [] -> infeasible ()
      | ok -> ok
    in
    let wcet_of op operator =
      Option.get
        (Dur.wcet durations ~op:(Alg.op_name algorithm op)
           ~operator:(Arch.operator_name architecture operator))
    in
    let placed = Array.make n None in
    let place op p = placed.(oi op) <- Some p in
    let placement op = placed.(oi op) in
    let operator_avail = Array.make (Arch.operator_count architecture) 0. in
    let medium_avail = Array.make (Arch.medium_count architecture) 0. in
    let comm_slots = ref [] in
    let pred_edges = Array.make n [] in
    List.iter
      (fun (((src, _), (dst, _)) as edge) ->
        if Alg.op_kind algorithm src <> Alg.Memory then
          pred_edges.(oi dst) <- edge :: pred_edges.(oi dst))
      deps;
    let is_memory op = Alg.op_kind algorithm op = Alg.Memory in
    let ready op =
      placement op = None
      && (not (is_memory op))
      && List.for_all (fun ((src, _), _) -> placement src <> None) pred_edges.(oi op)
    in
    let best_transfer ~commit ~src ~sp ~dst ~dp ~src_operator ~operator ~ready_at ~words =
      match routes architecture src_operator operator with
      | [] -> None
      | candidate_routes ->
          let walk route =
            let rec go t from acc = function
              | [] -> (t, List.rev acc)
              | (medium, next) :: rest ->
                  let start = Float.max medium_avail.(mi medium) t in
                  let duration = Arch.comm_duration architecture medium ~words in
                  go (start +. duration) next ((medium, from, next, start, duration) :: acc) rest
            in
            go ready_at src_operator [] route
          in
          let arrival, hops =
            List.fold_left
              (fun best route ->
                let ((a, _) as cand) = walk route in
                match best with
                | None -> Some cand
                | Some (ba, _) -> if a < ba then Some cand else best)
              None candidate_routes
            |> Option.get
          in
          if commit then
            List.iteri
              (fun hop (medium, from, to_, start, duration) ->
                medium_avail.(mi medium) <- start +. duration;
                comm_slots :=
                  {
                    Sched.cm_src = (src, sp);
                    cm_dst = (dst, dp);
                    cm_medium = medium;
                    cm_from = from;
                    cm_to = to_;
                    cm_hop = hop;
                    cm_start = start;
                    cm_duration = duration;
                    cm_read = start +. duration;
                  }
                  :: !comm_slots)
              hops;
          Some arrival
    in
    let try_on ~commit op operator =
      let feasible = ref true in
      let arrival = ref 0. in
      List.iter
        (fun (((src, sp), (dst, dp)) as edge) ->
          let p = Option.get (placement src) in
          let a =
            if p.p_operator = operator then p.p_finish
            else
              match
                best_transfer ~commit ~src ~sp ~dst ~dp ~src_operator:p.p_operator ~operator
                  ~ready_at:p.p_finish ~words:(dep_width algorithm edge)
              with
              | Some t -> t
              | None ->
                  feasible := false;
                  0.
          in
          arrival := Float.max !arrival a)
        pred_edges.(oi op);
      if not !feasible then None
      else
        let start = Float.max operator_avail.(pi operator) !arrival in
        Some (start, start +. wcet_of op operator)
    in
    let total_regular =
      List.length (List.filter (fun op -> not (is_memory op)) (Alg.ops algorithm))
    in
    for _ = 1 to total_regular do
      let candidates =
        List.filter_map
          (fun op ->
            if not (ready op) then None
            else
              match
                List.fold_left
                  (fun best operator ->
                    match try_on ~commit:false op operator with
                    | None -> best
                    | Some (est, eft) -> (
                        match best with
                        | None -> Some (operator, est, eft)
                        | Some (_, _, beft) ->
                            if eft < beft then Some (operator, est, eft) else best))
                  None (allowed op)
              with
              | None -> infeasible ()
              | Some (operator, _, eft) -> Some (op, operator, eft))
          (Alg.ops algorithm)
      in
      if candidates = [] then infeasible ();
      let better (cop, _, ceft) (bop, _, beft) =
        match strategy with
        | Adq.Pressure -> ceft +. tails.(oi cop) > beft +. tails.(oi bop)
        | Adq.Earliest_finish -> ceft < beft
      in
      let op, operator, _ =
        List.fold_left
          (fun best c ->
            match best with None -> Some c | Some b -> if better c b then Some c else best)
          None candidates
        |> Option.get
      in
      let start, finish = Option.get (try_on ~commit:true op operator) in
      place op { p_operator = operator; p_start = start; p_finish = finish };
      operator_avail.(pi operator) <- finish
    done;
    List.iter
      (fun op ->
        if is_memory op then begin
          let producers =
            List.filter_map
              (fun port -> Alg.dep_source algorithm op port)
              (List.init (Array.length (Alg.op_inputs algorithm op)) Fun.id)
          in
          let operator, ready_at =
            match producers with
            | [] -> (List.hd operator_ids, 0.)
            | (p0, _) :: _ ->
                let home =
                  match placement p0 with Some p -> p.p_operator | None -> List.hd operator_ids
                in
                let latest =
                  List.fold_left
                    (fun acc (src, sp) ->
                      match placement src with
                      | Some p when p.p_operator = home -> Float.max acc p.p_finish
                      | Some p -> (
                          match
                            best_transfer ~commit:true ~src ~sp ~dst:op ~dp:0
                              ~src_operator:p.p_operator ~operator:home ~ready_at:p.p_finish
                              ~words:(Alg.op_outputs algorithm src).(sp)
                          with
                          | Some t -> Float.max acc t
                          | None -> infeasible ())
                      | None -> infeasible ())
                    0. producers
                in
                (home, latest)
          in
          let wcet =
            Option.value ~default:0.
              (Dur.wcet durations ~op:(Alg.op_name algorithm op)
                 ~operator:(Arch.operator_name architecture operator))
          in
          let start = Float.max operator_avail.(pi operator) ready_at in
          place op { p_operator = operator; p_start = start; p_finish = start +. wcet };
          operator_avail.(pi operator) <- start +. wcet
        end)
      (Alg.ops algorithm);
    List.iter
      (fun (((src, sp), (dst, dp)) as edge) ->
        if is_memory src then
          match (placement src, placement dst) with
          | Some ps, Some pd when ps.p_operator <> pd.p_operator -> (
              match
                best_transfer ~commit:true ~src ~sp ~dst ~dp ~src_operator:ps.p_operator
                  ~operator:pd.p_operator ~ready_at:ps.p_finish ~words:(dep_width algorithm edge)
              with
              | Some _ -> ()
              | None -> infeasible ())
          | _ -> ())
      deps;
    let comp =
      List.map
        (fun op ->
          let p = Option.get (placement op) in
          {
            Sched.cs_op = op;
            cs_operator = p.p_operator;
            cs_start = p.p_start;
            cs_duration = p.p_finish -. p.p_start;
          })
        (Alg.ops algorithm)
    in
    Sched.make ~algorithm ~architecture ~comp ~comm:!comm_slots
end

(* ------------------------------------------------------------------ *)
(* schedules as text: the generated executive plus every slot's
   instants in hexadecimal, so equal strings mean bit-for-bit equal
   schedules *)

let fingerprint (s : Sched.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Aaa.Codegen.to_string (Aaa.Codegen.generate s));
  Printf.bprintf b "makespan %h\n" s.Sched.makespan;
  List.iter
    (fun (c : Sched.comp_slot) ->
      Printf.bprintf b "op %d on %d at %h for %h\n" (c.Sched.cs_op :> int)
        (c.Sched.cs_operator :> int) c.Sched.cs_start c.Sched.cs_duration)
    s.Sched.comp;
  List.iter
    (fun (c : Sched.comm_slot) ->
      Printf.bprintf b "hop %d.%d->%d.%d #%d on %d %d->%d at %h for %h read %h\n"
        (fst c.Sched.cm_src :> int)
        (snd c.Sched.cm_src)
        (fst c.Sched.cm_dst :> int)
        (snd c.Sched.cm_dst) c.Sched.cm_hop (c.Sched.cm_medium :> int)
        (c.Sched.cm_from :> int) (c.Sched.cm_to :> int) c.Sched.cm_start c.Sched.cm_duration
        c.Sched.cm_read)
    s.Sched.comm;
  Buffer.contents b

(* an infeasible problem must stay infeasible; the messages differ *)
let outcome f =
  match f () with s -> Some (fingerprint s) | exception Adq.Infeasible _ -> None

let agrees ~algorithm ~architecture ~durations =
  List.for_all
    (fun strategy ->
      outcome (fun () -> Adq.run ~strategy ~algorithm ~architecture ~durations ())
      = outcome (fun () -> Oracle.run ~strategy ~algorithm ~architecture ~durations ()))
    [ Adq.Pressure; Adq.Earliest_finish ]

(* ------------------------------------------------------------------ *)
(* random problems *)

module R = Numerics.Rng

let names n = List.init n (Printf.sprintf "P%d")

(* the per-word time of a bus must be positive; latencies may be 0 *)
let latency rng = if R.int rng 3 = 0 then 0. else 0.0005 *. float_of_int (1 + R.int rng 4)
let word_time rng = 0.0002 *. float_of_int (1 + R.int rng 5)

let single_bus rng =
  Arch.bus_topology ~latency:(latency rng) ~time_per_word:(word_time rng)
    (names (2 + R.int rng 7))

let mesh rng =
  Arch.fully_connected ~latency:(latency rng) ~time_per_word:(word_time rng)
    (names (2 + R.int rng 5))

(* busA = P0..Pk + GW, busB = GW + the rest *)
let gateway rng =
  let arch = Arch.create ~name:"gateway" in
  let side prefix =
    List.init (1 + R.int rng 3) (fun i ->
        Arch.add_operator arch ~name:(Printf.sprintf "%s%d" prefix i))
  in
  let left = side "A" in
  let gw = Arch.add_operator arch ~name:"GW" in
  let right = side "B" in
  let _ =
    Arch.add_medium arch ~name:"busA" ~kind:Arch.Bus ~latency:(latency rng)
      ~time_per_word:(word_time rng) (left @ [ gw ])
  in
  let _ =
    Arch.add_medium arch ~name:"busB" ~kind:Arch.Bus ~latency:(latency rng)
      ~time_per_word:(word_time rng) (gw :: right)
  in
  arch

(* zero-cost media: the algorithm forbids zero-width ports, so a
   zero-duration hop comes from a link with zero latency and zero word
   time (only point-to-point links may have one); every transfer over
   such links ties, which exercises the first-of-equals rule.  A
   zero-latency bus overlaps them. *)
let zero_cost rng =
  let n = 3 + R.int rng 4 in
  let arch = Arch.fully_connected ~latency:0. ~time_per_word:0. (names n) in
  let ops = Arch.operators arch in
  let _ =
    Arch.add_medium arch ~name:"bus" ~kind:Arch.Bus ~latency:0. ~time_per_word:(word_time rng)
      (List.filter (fun _ -> R.int rng 3 > 0) ops @ [ List.hd ops; List.nth ops 1 ])
  in
  arch

(* overlapping buses and point-to-point links over 3..7 operators,
   chained so the operator graph is connected *)
let mixed rng =
  let n = 3 + R.int rng 5 in
  let arch = Arch.create ~name:"mixed" in
  let ops = Array.of_list (List.map (fun name -> Arch.add_operator arch ~name) (names n)) in
  let k = ref 0 in
  let medium kind endpoints =
    incr k;
    let time_per_word =
      if kind = Arch.Point_to_point && R.int rng 4 = 0 then 0. else word_time rng
    in
    ignore
      (Arch.add_medium arch ~name:(Printf.sprintf "m%d" !k) ~kind ~latency:(latency rng)
         ~time_per_word endpoints)
  in
  (* a chain of short buses keeps the graph connected *)
  let i = ref 0 in
  while !i < n - 1 do
    let len = min (n - !i) (2 + R.int rng 3) in
    medium Arch.Bus (Array.to_list (Array.sub ops !i len));
    i := !i + len - 1
  done;
  for _ = 1 to R.int rng 4 do
    let a = R.int rng n and b = R.int rng n in
    if a <> b then medium Arch.Point_to_point [ ops.(a); ops.(b) ]
  done;
  for _ = 1 to R.int rng 3 do
    medium Arch.Bus
      (List.filter (fun _ -> R.int rng 2 = 0) (Array.to_list ops) @ [ ops.(0); ops.(n - 1) ])
  done;
  arch

(* a layered DAG with multi-input operations and random widths, an
   optional memory feedback and an optional conditioned branch; each
   operation runs on a random non-empty subset of the operators with
   its own WCET there *)
let random_problem ?(period = 10.) rng arch =
  let alg = Alg.create ~name:"rand" ~period in
  let layers = 2 + R.int rng 3 in
  let prev = ref [] in
  let all = ref [] in
  let producers = ref [] in
  for layer = 0 to layers - 1 do
    let width = 1 + R.int rng 3 in
    let ops =
      List.init width (fun i ->
          let kind =
            if layer = 0 then Alg.Sensor
            else if layer = layers - 1 then Alg.Actuator
            else Alg.Compute
          in
          let fan_in = if layer = 0 then 0 else 1 + R.int rng 2 in
          let sources = List.init fan_in (fun _ -> R.choice rng (Array.of_list !prev)) in
          let inputs = Array.of_list (List.map (fun (_, w) -> w) sources) in
          let outputs = if layer = layers - 1 then [||] else [| 1 + R.int rng 3 |] in
          let op =
            Alg.add_op alg ~name:(Printf.sprintf "op_%d_%d" layer i) ~kind ~inputs ~outputs ()
          in
          List.iteri (fun port (src, _) -> Alg.depend alg ~src:(src, 0) ~dst:(op, port)) sources;
          (op, outputs))
    in
    all := ops @ !all;
    prev :=
      List.filter_map (fun (op, outs) -> if outs = [||] then None else Some (op, outs.(0))) ops;
    producers := !prev @ !producers
  done;
  (* a memory fed by any producer, read by an operation without other
     inputs: its value crosses to the reader at the end of the iteration *)
  if R.int rng 2 = 0 then begin
    let src, w = R.choice rng (Array.of_list !producers) in
    let mem = Alg.add_op alg ~name:"mem" ~kind:Alg.Memory ~inputs:[| w |] ~outputs:[| w |] () in
    Alg.depend alg ~src:(src, 0) ~dst:(mem, 0);
    let reader = Alg.add_op alg ~name:"reader" ~kind:Alg.Compute ~inputs:[| w |] () in
    Alg.depend alg ~src:(mem, 0) ~dst:(reader, 0);
    all := (mem, [| w |]) :: (reader, [||]) :: !all
  end;
  if R.int rng 2 = 0 then begin
    let mode = Alg.add_op alg ~name:"mode" ~kind:Alg.Sensor ~outputs:[| 1 |] () in
    Alg.set_condition_source alg ~var:"m" (mode, 0);
    List.iter
      (fun value ->
        let op =
          Alg.add_op alg ~name:(Printf.sprintf "branch%d" value) ~kind:Alg.Compute
            ~cond:{ Alg.var = "m"; value } ()
        in
        all := (op, [||]) :: !all)
      [ 0; 1 ];
    all := (mode, [| 1 |]) :: !all
  end;
  let procs = List.map (Arch.operator_name arch) (Arch.operators arch) in
  let d = Dur.create () in
  List.iter
    (fun (op, _) ->
      let name = Alg.op_name alg op in
      let hosts = List.filter (fun _ -> R.int rng 3 > 0) procs in
      let hosts = if hosts = [] then [ R.choice rng (Array.of_list procs) ] else hosts in
      List.iter
        (fun operator ->
          Dur.set d ~op:name ~operator (0.001 +. R.float rng 0.02))
        hosts)
    !all;
  (alg, d)

let agrees_on topology seed =
  let rng = R.create seed in
  let architecture = topology rng in
  let algorithm, durations = random_problem rng architecture in
  agrees ~algorithm ~architecture ~durations

let networked n =
  let procs = List.init n (Printf.sprintf "N%d") in
  let architecture = Arch.bus_topology ~time_per_word:0.0002 procs in
  let algorithm, durations =
    Aaa.Workloads.fork_join ~period:0.05 ~sensor_wcet:0.002 ~branch_wcet:0.004
      ~fusion_wcet:0.003 ~branches:(2 * n) ~operators:procs ()
  in
  (algorithm, architecture, durations)

let seeds = QCheck2.Gen.int_range 0 1_000_000

let oracle_tests =
  [
    qtest "single bus: schedules equal the oracle's" ~count:60 seeds (agrees_on single_bus);
    qtest "point-to-point mesh: schedules equal the oracle's" ~count:60 seeds (agrees_on mesh);
    qtest "gateway between two buses: schedules equal the oracle's" ~count:60 seeds
      (agrees_on gateway);
    qtest "zero-cost links: schedules equal the oracle's" ~count:60 seeds (agrees_on zero_cost);
    qtest "overlapping buses and links: schedules equal the oracle's" ~count:60 seeds
      (agrees_on mixed);
    test "networked fork-join, N = 4..10: schedules equal the oracle's" (fun () ->
        List.iter
          (fun n ->
            let algorithm, architecture, durations = networked n in
            check_true (Printf.sprintf "N=%d" n) (agrees ~algorithm ~architecture ~durations))
          [ 4; 6; 8; 10 ]);
    test "networked fork-join, N = 4..24: schedules keep their recorded digests" (fun () ->
        (* digests of [fingerprint] recorded from the breadth-first
           search without the route table, which takes 15 s at N = 24;
           both strategies agree on this symmetric workload *)
        List.iter
          (fun (n, digest) ->
            let algorithm, architecture, durations = networked n in
            List.iter
              (fun strategy ->
                let s = Adq.run ~strategy ~algorithm ~architecture ~durations () in
                Alcotest.(check string)
                  (Printf.sprintf "N=%d" n) digest
                  (Digest.to_hex (Digest.string (fingerprint s))))
              [ Adq.Pressure; Adq.Earliest_finish ])
          [
            (4, "4cfd22d8e08a9d1052058ef1af20daf7");
            (8, "fac2f1544eacf017ff5b4ed8b7ccb05d");
            (12, "fb8eaf25242821399ac1e5364a1a8380");
            (16, "2dba8fdc81524af3bb8228c52d05fd76");
            (20, "4a16caadabeaf48960fa3973cde9466e");
            (24, "eacddd49774437e7da20c47f6f962481");
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* the route search and the dominance filter *)

let pairs arch =
  List.concat_map
    (fun a -> List.filter_map (fun b -> if a = b then None else Some (a, b)) (Arch.operators arch))
    (Arch.operators arch)

let any_topology rng =
  (R.choice rng [| single_bus; mesh; gateway; zero_cost; mixed |]) rng

let rec relays_on_one_medium = function
  | (m1, _) :: ((m2, _) :: _ as rest) -> m1 = m2 || relays_on_one_medium rest
  | [ _ ] | [] -> false

let route_tests =
  [
    qtest "routes equal the plain BFS and come in nondecreasing hop count" ~count:100 seeds
      (fun seed ->
        let rng = R.create seed in
        let arch = any_topology rng in
        let max_hops = 1 + R.int rng 4 and max_routes = 1 + R.int rng 10 in
        List.for_all
          (fun (a, b) ->
            let routes = Arch.routes ~max_hops ~max_routes arch a b in
            let rec nondecreasing = function
              | r1 :: (r2 :: _ as rest) -> List.length r1 <= List.length r2 && nondecreasing rest
              | [ _ ] | [] -> true
            in
            routes = Oracle.routes ~max_hops ~max_routes arch a b && nondecreasing routes)
          (pairs arch));
    qtest "the route table drops exactly the same-medium relays" ~count:100 seeds (fun seed ->
        let arch = any_topology (R.create seed) in
        let table = Adq.route_table arch in
        List.for_all
          (fun (a, b) ->
            table a b
            = List.filter (fun r -> not (relays_on_one_medium r)) (Arch.routes arch a b))
          (pairs arch));
    test "one bus: the table keeps exactly the direct route" (fun () ->
        let arch = Arch.bus_topology ~time_per_word:0.001 (names 6) in
        let bus = List.hd (Arch.media arch) in
        let ops = Array.of_list (Arch.operators arch) in
        check_int "BFS finds relays too" 8 (List.length (Arch.routes arch ops.(0) ops.(4)));
        check_true "direct only" (Adq.route_table arch ops.(0) ops.(4) = [ [ (bus, ops.(4)) ] ]));
    test "gateway: the table keeps the two-hop route" (fun () ->
        let arch = Arch.create ~name:"gateway" in
        let p0 = Arch.add_operator arch ~name:"P0" in
        let p1 = Arch.add_operator arch ~name:"P1" in
        let gw = Arch.add_operator arch ~name:"GW" in
        let p2 = Arch.add_operator arch ~name:"P2" in
        let bus name endpoints =
          Arch.add_medium arch ~name ~kind:Arch.Bus ~time_per_word:0.001 endpoints
        in
        let bus_a = bus "busA" [ p0; p1; gw ] in
        let bus_b = bus "busB" [ gw; p2 ] in
        check_true "via gateway" (Adq.route_table arch p0 p2 = [ [ (bus_a, gw); (bus_b, p2) ] ]);
        check_true "BFS also relays through P1"
          (List.mem [ (bus_a, p1); (bus_a, gw); (bus_b, p2) ] (Arch.routes arch p0 p2)));
  ]

let suites = [ ("aaa.oracle", oracle_tests); ("aaa.routes", route_tests) ]
